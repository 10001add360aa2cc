//! Sentence splitting for the stylistic features.
//!
//! The paper's stylistic features are the *mean number of words per
//! sentence* and the *mean word length* (Section IV-B). Tweets rarely
//! contain elaborate sentence structure, so a boundary-character splitter
//! (`.` `!` `?` `\n`, with runs collapsed) is sufficient and fast.

use crate::tokenizer::{Token, TokenKind, TokenSpan};

/// Split `text` into sentences, returning the non-empty trimmed slices.
///
/// Runs of terminator characters (`...`, `?!`) close a single sentence.
pub fn split_sentences(text: &str) -> Vec<&str> {
    let mut sentences = Vec::new();
    let mut start = 0;
    let mut in_terminator = false;
    for (i, c) in text.char_indices() {
        let is_term = matches!(c, '.' | '!' | '?' | '\n');
        if is_term && !in_terminator {
            let s = text[start..i].trim();
            if !s.is_empty() {
                sentences.push(s);
            }
            in_terminator = true;
        } else if !is_term && in_terminator {
            start = i;
            in_terminator = false;
        }
    }
    if !in_terminator {
        let s = text[start..].trim();
        if !s.is_empty() {
            sentences.push(s);
        }
    }
    sentences
}

/// Number of sentences that contain at least one word token.
///
/// Tweets commonly end with a trail of hashtags, URLs, or a `via @user`
/// attribution after the final terminator; counting those fragments as
/// sentences would skew the `wordsPerSentence` feature in a
/// class-dependent way (content-heavy classes append more of them). This
/// counts only segments that contribute actual words, using the byte
/// offsets of an existing tokenization pass.
///
/// Terminators count wherever they appear in the raw text, inside URLs and
/// numbers too (`t.co`, `2.5`). The tokenizer's scan runs the same
/// `SentenceCounter` as it reads a tweet, so the feature extractor gets
/// this count without a second walk over the text.
pub fn count_word_sentences(text: &str, tokens: &[Token<'_>]) -> usize {
    count_with_word_starts(
        text,
        tokens.iter().filter(|t| t.kind == TokenKind::Word).map(|t| t.start),
    )
}

/// [`count_word_sentences`] over offset-based token spans.
pub fn count_word_sentences_spans(text: &str, spans: &[TokenSpan]) -> usize {
    count_with_word_starts(
        text,
        spans.iter().filter(|s| s.kind == TokenKind::Word).map(|s| s.start as usize),
    )
}

/// Drive a [`SentenceCounter`] over the bytes of `text`, with the
/// ascending word-token start offsets marking words. Word tokens never
/// begin on a terminator, and terminators are ASCII, so the bytes of a
/// multi-byte character are plain non-terminators.
fn count_with_word_starts(text: &str, word_starts: impl IntoIterator<Item = usize>) -> usize {
    let mut starts = word_starts.into_iter().peekable();
    let mut counter = SentenceCounter::default();
    for (i, &b) in text.as_bytes().iter().enumerate() {
        if starts.peek() == Some(&i) {
            starts.next();
            counter.word();
        } else {
            counter.byte(b);
        }
    }
    counter.finish()
}

/// The word-bearing sentence count as a state machine over the characters
/// of a text: segments between runs of terminators (`.` `!` `?` `\n`)
/// count when at least one word starts in them.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SentenceCounter {
    count: usize,
    in_terminator: bool,
    has_word: bool,
}

impl SentenceCounter {
    /// A word token starts here.
    pub(crate) fn word(&mut self) {
        self.has_word = true;
        self.in_terminator = false;
    }

    /// A character that does not end a sentence.
    pub(crate) fn other(&mut self) {
        self.in_terminator = false;
    }

    /// The byte of an ASCII character, or any byte of a multi-byte one.
    pub(crate) fn byte(&mut self, b: u8) {
        if matches!(b, b'.' | b'!' | b'?' | b'\n') {
            if !self.in_terminator {
                self.count += usize::from(self.has_word);
                self.has_word = false;
                self.in_terminator = true;
            }
        } else {
            self.in_terminator = false;
        }
    }

    /// The count, closing the open segment at the end of the text.
    pub(crate) fn finish(&self) -> usize {
        self.count + usize::from(!self.in_terminator && self.has_word)
    }
}

/// Summary statistics over the sentence/word structure of a text, computed
/// from one tokenization pass plus one sentence-splitting pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StylisticStats {
    /// Mean number of word tokens per sentence (`wordsPerSentence`).
    pub words_per_sentence: f64,
    /// Mean word length in characters (`meanWordLength`).
    pub mean_word_length: f64,
    /// Total number of word tokens.
    pub num_words: usize,
    /// Total number of sentences.
    pub num_sentences: usize,
}

/// Compute [`StylisticStats`] for `text`, given its precomputed tokens.
pub fn stylistic_stats(text: &str, tokens: &[Token<'_>]) -> StylisticStats {
    let words: Vec<&Token<'_>> = tokens.iter().filter(|t| t.kind == TokenKind::Word).collect();
    let num_words = words.len();
    let sentences = split_sentences(text);
    let num_sentences = sentences.len().max(1);
    let total_chars: usize = words.iter().map(|t| t.text.chars().count()).sum();
    StylisticStats {
        words_per_sentence: num_words as f64 / num_sentences as f64,
        mean_word_length: if num_words == 0 {
            0.0
        } else {
            total_chars as f64 / num_words as f64
        },
        num_words,
        num_sentences: sentences.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;

    #[test]
    fn splits_on_terminators() {
        let s = split_sentences("First one. Second one! Third?");
        assert_eq!(s, vec!["First one", "Second one", "Third"]);
    }

    #[test]
    fn collapses_terminator_runs() {
        let s = split_sentences("Wait... what?! ok");
        assert_eq!(s, vec!["Wait", "what", "ok"]);
    }

    #[test]
    fn newlines_are_boundaries() {
        let s = split_sentences("line one\nline two");
        assert_eq!(s, vec!["line one", "line two"]);
    }

    #[test]
    fn no_terminator_is_one_sentence() {
        assert_eq!(split_sentences("just one"), vec!["just one"]);
    }

    #[test]
    fn empty_input() {
        assert!(split_sentences("").is_empty());
        assert!(split_sentences("...").is_empty());
    }

    #[test]
    fn stats_basic() {
        let text = "one two three. four five.";
        let toks = tokenize(text);
        let st = stylistic_stats(text, &toks);
        assert_eq!(st.num_words, 5);
        assert_eq!(st.num_sentences, 2);
        assert!((st.words_per_sentence - 2.5).abs() < 1e-12);
        // (3 + 3 + 5 + 4 + 4) / 5 = 3.8
        assert!((st.mean_word_length - 3.8).abs() < 1e-12);
    }

    #[test]
    fn stats_ignore_non_words() {
        let text = "hey @you #tag http://x.co 42";
        let toks = tokenize(text);
        let st = stylistic_stats(text, &toks);
        assert_eq!(st.num_words, 1);
        assert!((st.mean_word_length - 3.0).abs() < 1e-12);
    }

    #[test]
    fn word_sentences_ignore_trailing_fragments() {
        let text = "Real words here. More words! #tag #tag2 http://t.co/xyz";
        let toks = tokenize(text);
        assert_eq!(count_word_sentences(text, &toks), 2, "hashtag/url trail not a sentence");
        let text = "one. two. three.";
        let toks = tokenize(text);
        assert_eq!(count_word_sentences(text, &toks), 3);
        let text = "#only #tags http://t.co/x";
        let toks = tokenize(text);
        assert_eq!(count_word_sentences(text, &toks), 0);
        assert_eq!(count_word_sentences("", &[]), 0);
    }

    #[test]
    fn word_sentences_with_via_attribution() {
        let text = "RT @a: you are the worst. via @someone";
        let toks = tokenize(text);
        // "RT ... worst" counts; "via @someone" contains the word "via".
        assert_eq!(count_word_sentences(text, &toks), 2);
        let text = "you are the worst. @someone http://x.co";
        let toks = tokenize(text);
        assert_eq!(count_word_sentences(text, &toks), 1);
    }

    #[test]
    fn span_variant_agrees_with_token_variant() {
        let mut spans = Vec::new();
        for text in [
            "Real words here. More words! #tag #tag2 http://t.co/xyz",
            "RT @a: you are the worst. via @someone",
            "one. two. three.",
            "#only #tags http://t.co/x",
            "Wait... what?! ok",
            "",
            "...",
        ] {
            let toks = tokenize(text);
            crate::tokenizer::tokenize_into(text, &mut spans);
            assert_eq!(
                count_word_sentences_spans(text, &spans),
                count_word_sentences(text, &toks),
                "{text:?}"
            );
        }
    }

    #[test]
    fn stats_empty_text() {
        let st = stylistic_stats("", &[]);
        assert_eq!(st.num_words, 0);
        assert_eq!(st.num_sentences, 0);
        assert_eq!(st.words_per_sentence, 0.0);
        assert_eq!(st.mean_word_length, 0.0);
    }
}

//! Tweet text preprocessing (Section III-A of the paper).
//!
//! Cleans the tweet text by removing numbers, punctuation marks, special
//! symbols, and URLs, condensing white space, and dropping tweet-specific
//! content: known abbreviations (e.g. `RT`), hashtags, and user mentions.
//! The output is the whitespace-joined sequence of surviving words.

use redhanded_nlp::lexicons::{self, Lex};
use redhanded_nlp::tokenizer::{tokenize, Token, TokenKind, TokenSpan};

pub use redhanded_nlp::lexicons::TWEET_ABBREVIATIONS;

/// Predicate: does a raw token survive preprocessing?
///
/// Words that exactly match an emoticon spelling (`xD`, `XD`, …) are also
/// dropped: the tokenizer only recognizes them as emoticons at a token
/// boundary, so `xD5` yields a *word* `xD` that a second tokenization pass
/// would reclassify — filtering them here keeps preprocessing idempotent.
pub fn keep_token(token: &Token<'_>) -> bool {
    keep(token.kind, token.text)
}

/// [`keep_token`] for offset-based spans against their source text.
pub fn keep_span(source: &str, span: &TokenSpan) -> bool {
    keep(span.kind, span.text(source))
}

fn keep(kind: TokenKind, text: &str) -> bool {
    kind == TokenKind::Word && keep_word(text, lexicons::lex(&text.to_lowercase()))
}

/// The filter for a word token, given the [`Lex`] entry of its lowercase
/// form (the feature extractor has it from its one lexicon probe).
///
/// The entry's flags are keyed by the lowercase form; each is confirmed
/// against the raw spelling the way the filter defines it: abbreviations
/// match ASCII case-insensitively (so the raw word must be ASCII), and
/// emoticons match exactly (so `xD` and `XD` go, `Xd` stays).
pub fn keep_word(raw: &str, lex: Lex) -> bool {
    let abbreviation = lex.is_abbreviation() && raw.is_ascii();
    let emoticon = lex.is_emoticon_word() && lexicons::is_emoticon_spelling(raw);
    !(abbreviation || emoticon)
}

/// Clean `text`, returning the surviving words joined by single spaces.
pub fn preprocess(text: &str) -> String {
    let tokens = tokenize(text);
    let mut out = String::with_capacity(text.len());
    for tok in tokens.iter().filter(|t| keep_token(t)) {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(tok.text);
    }
    out
}

/// Clean pre-tokenized text, returning the surviving word tokens. Avoids a
/// second tokenization pass when the caller already tokenized the raw text.
pub fn preprocess_tokens<'a, 't>(tokens: &'a [Token<'t>]) -> Vec<&'a Token<'t>> {
    tokens.iter().filter(|t| keep_token(t)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn removes_urls_mentions_hashtags_numbers_punctuation() {
        let cleaned = preprocess("@you check 42 things!! at http://t.co/x #topic now.");
        assert_eq!(cleaned, "check things at now");
    }

    #[test]
    fn removes_rt_abbreviation_case_insensitively() {
        assert_eq!(preprocess("RT @a: hello"), "hello");
        assert_eq!(preprocess("rt hello via someone"), "hello someone");
    }

    #[test]
    fn condenses_whitespace() {
        assert_eq!(preprocess("a   lot\t of \n space"), "a lot of space");
    }

    #[test]
    fn empty_and_symbol_only_inputs() {
        assert_eq!(preprocess(""), "");
        assert_eq!(preprocess("$%* 123 @m #h http://x.co"), "");
    }

    #[test]
    fn keeps_contractions() {
        assert_eq!(preprocess("don't you dare"), "don't you dare");
    }

    #[test]
    fn preprocessing_is_idempotent() {
        let once = preprocess("RT @a: Hello, WORLD!! http://x.co #hi 99");
        let twice = preprocess(&once);
        assert_eq!(once, twice);
    }

    #[test]
    fn output_has_no_removable_content() {
        let cleaned = preprocess("RT @v: u r 2 DUMB!!! see http://t.co/q #fail :(");
        for tok in redhanded_nlp::tokenize(&cleaned) {
            assert_eq!(tok.kind, TokenKind::Word, "leftover {:?}", tok);
        }
        assert!(!cleaned.contains("http"));
        assert!(!cleaned.contains('#'));
        assert!(!cleaned.contains('@'));
    }

    #[test]
    fn emoticon_shaped_words_are_dropped_for_idempotency() {
        // "xD5" tokenizes as word "xD" + number "5"; the word must not
        // survive, or a second cleaning pass would remove it (the
        // tokenizer sees a standalone "xD" as an emoticon).
        assert_eq!(preprocess("xD5 fun"), "fun");
        assert_eq!(preprocess(&preprocess("xD5 fun")), "fun");
    }

    #[test]
    fn token_filter_agrees_with_string_form() {
        let text = "RT @a: Real words only! #tag 42";
        let toks = tokenize(text);
        let kept: Vec<&str> = preprocess_tokens(&toks).into_iter().map(|t| t.text).collect();
        assert_eq!(kept.join(" "), preprocess(text));
    }
}

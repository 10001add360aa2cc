//! One scan per tweet, one lexicon probe per word.
//!
//! [`TextScan::scan`] reads a tweet once with the tokenizer's scan. For
//! every word token it appends the lowercase form to a single arena and
//! probes the one lexicon table ([`lexicons::lex_map`]) once. The result is
//! a [`Lexeme`] per token: span, lexicon entry, lowercase range, and the
//! flags the scan collected on the way (shouting, emoticon valence, `!`).
//! The sentence-terminator state rides along, so the word-bearing sentence
//! count is ready when the scan ends.
//!
//! Everything downstream reads these lexemes instead of the text: the
//! sentiment scorer ([`TextScan::sentiment`]), and in the features crate
//! the preprocessing filter, the POS tally and the word-length mean. The
//! convenience entry points ([`crate::score_spans`],
//! [`crate::score_tokens_with`]) refill the same lexemes from tokens they
//! are handed and score them with the same code.

use crate::intern::push_lowercase;
use crate::lexicons::{self, Lex};
use crate::sentiment::{score_core, SentimentScore};
use crate::tokenizer::{is_shouting_text, TokenKind, TokenSpan, Tokenizer};

/// One token as the per-token pass sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lexeme {
    /// Where the token is in the text, and its kind.
    pub span: TokenSpan,
    /// Word tokens: the lexicon entry of the lowercase form. Emoticon
    /// tokens: their `±2` valence in `valence`. Default otherwise.
    pub lex: Lex,
    /// Word tokens: byte range of the lowercase form in the arena
    /// (see [`TextScan::lower`]); `(0, 0)` otherwise.
    pub lower: (u32, u32),
    /// Word tokens: at least two letters, every one uppercase.
    pub shouting: bool,
    /// A `!` punctuation token (strengthens the term before it).
    pub bang: bool,
}

/// Reusable per-tweet working memory: the lexemes of the last scan, the
/// lowercase arena they point into, and the scorer's work buffers. All
/// buffers are cleared, never shrunk, so a stream consumer stops
/// allocating after warm-up (non-ASCII words still allocate inside the
/// Unicode lowercasing fallback of [`push_lowercase`]).
#[derive(Debug, Clone, Default)]
pub struct TextScan {
    lexemes: Vec<Lexeme>,
    arena: String,
    /// Work buffer for the double-letter squeezed spelling.
    squeeze: String,
    /// Work buffer for the fully deduplicated spelling.
    dedup: String,
    word_sentences: usize,
}

impl TextScan {
    /// An empty scan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scan `text`: tokenize it, lowercase and look up every word token,
    /// and count its word-bearing sentences. Replaces the previous scan.
    pub fn scan(&mut self, text: &str) {
        self.clear();
        let mut tokens = Tokenizer::new(text);
        while let Some(t) = tokens.scan_token() {
            self.push(t.span.text(text), t.span, t.shouting, t.valence);
        }
        self.word_sentences = tokens.word_sentences();
    }

    /// Refill the lexemes from `n` tokens handed in by the caller:
    /// `token(i)` gives the `i`-th token's text and span. Computes what
    /// [`TextScan::scan`] would have recorded for them, except the sentence
    /// count (left at `0`).
    pub(crate) fn refill<'t>(&mut self, n: usize, token: impl Fn(usize) -> (&'t str, TokenSpan)) {
        self.clear();
        for i in 0..n {
            let (raw, span) = token(i);
            let shouting = span.kind == TokenKind::Word && is_shouting_text(raw);
            let valence = match span.kind {
                TokenKind::Emoticon => lexicons::emoticon_valence(raw),
                _ => 0,
            };
            self.push(raw, span, shouting, valence);
        }
    }

    /// Append the lexeme of one token: words are lowercased into the arena
    /// and looked up once.
    fn push(&mut self, raw: &str, span: TokenSpan, shouting: bool, valence: i8) {
        let (lex, lower) = match span.kind {
            TokenKind::Word => {
                let r = push_lowercase(&mut self.arena, raw);
                (lexicons::lex(&self.arena[r.0 as usize..r.1 as usize]), r)
            }
            TokenKind::Emoticon => (Lex::emoticon(valence), (0, 0)),
            _ => (Lex::default(), (0, 0)),
        };
        let bang = span.kind == TokenKind::Punctuation && raw == "!";
        self.lexemes.push(Lexeme { span, lex, lower, shouting, bang });
    }

    fn clear(&mut self) {
        self.lexemes.clear();
        self.arena.clear();
        self.word_sentences = 0;
    }

    /// The lexemes of the last scan, in text order.
    pub fn lexemes(&self) -> &[Lexeme] {
        &self.lexemes
    }

    /// The arena text behind a range from [`Lexeme::lower`] or
    /// [`TextScan::push_lowercase`].
    pub fn lower(&self, range: (u32, u32)) -> &str {
        &self.arena[range.0 as usize..range.1 as usize]
    }

    /// Append the lowercase form of `text` to the arena, for tokens the
    /// scan does not lowercase itself (non-word tokens kept as words when
    /// preprocessing is off). Valid until the next scan.
    pub fn push_lowercase(&mut self, text: &str) -> (u32, u32) {
        push_lowercase(&mut self.arena, text)
    }

    /// Sentences of the scanned text that contain at least one word token
    /// (see [`crate::count_word_sentences`]).
    pub fn word_sentences(&self) -> usize {
        self.word_sentences
    }

    /// The dual sentiment score of the scanned tokens.
    pub fn sentiment(&mut self) -> SentimentScore {
        score_core(
            &self.lexemes,
            &self.arena,
            &mut self.squeeze,
            &mut self.dedup,
        )
    }
}

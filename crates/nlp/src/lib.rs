//! NLP substrate for the `redhanded` framework.
//!
//! Everything the feature-extraction stage (Section IV-B of the paper) needs
//! from natural-language processing, implemented from scratch:
//!
//! * [`tokenizer`] — Twitter-aware typed tokenization (words, URLs,
//!   mentions, hashtags, emoticons, numbers, punctuation);
//! * [`sentence`] — sentence splitting and the stylistic statistics
//!   (`wordsPerSentence`, `meanWordLength`);
//! * [`pos`] — rule/lexicon part-of-speech tagging for the syntactic
//!   features (`cntAdjective`, `cntAdverbs`, `cntVerbs`);
//! * [`sentiment`] — a SentiStrength-style dual-polarity scorer on the
//!   [-5, 5] scale (`sentimentScorePos`, `sentimentScoreNeg`);
//! * [`lexicons`] — the static word lists backing all of the above,
//!   including the 347-entry profanity list that seeds the adaptive
//!   bag-of-words;
//! * [`intern`] — word interning (string → dense `u32` id) and the
//!   lowercase-arena helper behind the allocation-free extraction path;
//! * [`fxhash`] — the fast non-cryptographic hasher backing every lexicon
//!   table and id-keyed map on the per-token hot path.
//!
//! * [`scan`] — the per-tweet pass the feature extractor runs: one
//!   tokenizer scan, and for every word one lowercase copy into a shared
//!   arena and one probe of the single lexicon table
//!   ([`lexicons::lex_map`]).
//!
//! The tokenizer, sentiment scorer, POS tagger and sentence counter keep
//! their standalone entry points ([`tokenize`], [`tokenize_into`],
//! [`score_tokens`], [`score_spans`], [`count_pos`],
//! [`count_word_sentences`]); each is a thin driver over the same scan,
//! table and scoring code that [`TextScan`] runs, so the two cannot drift
//! apart.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fxhash;
pub mod intern;
pub mod lexicons;
pub mod pos;
pub mod scan;
pub mod sentence;
pub mod sentiment;
pub mod tokenizer;

pub use fxhash::{FxHashMap, FxHashSet, FxHasher};
pub use intern::{push_lowercase, WordId, WordInterner};
pub use lexicons::Lex;
pub use pos::{count_pos, tag_entry, tag_word, PosCounts, PosTag};
pub use scan::{Lexeme, TextScan};
pub use sentence::{
    count_word_sentences, count_word_sentences_spans, split_sentences, stylistic_stats,
    StylisticStats,
};
pub use sentiment::{
    score_spans, score_text, score_tokens, score_tokens_with, SentimentScore, SentimentScratch,
};
pub use tokenizer::{tokenize, tokenize_into, Token, TokenKind, TokenSpan, Tokenizer};

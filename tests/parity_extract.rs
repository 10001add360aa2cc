//! Golden parity: the scratch-based extraction path must be bit-identical
//! to the original allocating implementation.
//!
//! The extraction path has been rewritten twice (scratch buffers and
//! interning, then the single-scan pass with one lexicon table), so
//! comparing `extract_into` against today's `extract` alone would not catch
//! a regression both paths share. This test therefore *transcribes the
//! seed implementations verbatim* — the tokenizer, the preprocessing
//! filter, `score_tokens`, `count_word_sentences`, `tag_word`, and
//! `FeatureExtractor::extract`, expressed through the public lexicon
//! tables — and checks the library against that golden reference: over a
//! generated corpus (3-class and 2-class labels), over hand-written cases
//! for every behaviour the single scan must reproduce, and over random
//! mixed ASCII/Unicode strings; preprocessing ON and OFF, with exact `f64`
//! equality.

use redhanded_datagen::{generate_abusive, AbusiveConfig};
use redhanded_features::{
    AdaptiveBow, ExtractScratch, ExtractorConfig, FeatureExtractor, NUM_FEATURES,
};
use redhanded_nlp::lexicons;
use proptest::prelude::*;
use redhanded_nlp::tokenizer::{tokenize, tokenize_into, TokenKind, TokenSpan};
use redhanded_nlp::PosTag;
use redhanded_types::{ClassScheme, Tweet};

// ---------------------------------------------------------------------------
// Seed transcriptions (pre-refactor implementations, kept verbatim modulo
// visibility: private helpers are inlined, lexicon access goes through the
// unchanged public API).
// ---------------------------------------------------------------------------

/// A seed token: the library's `Token` shape, owned by this test so the
/// golden side never runs library tokenizer code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Token<'a> {
    text: &'a str,
    kind: TokenKind,
    start: usize,
}

impl Token<'_> {
    fn end(&self) -> usize {
        self.start + self.text.len()
    }

    fn is_shouting(&self) -> bool {
        let alpha_count = self.text.chars().filter(|c| c.is_alphabetic()).count();
        alpha_count >= 2
            && self.text.chars().filter(|c| c.is_alphabetic()).all(|c| c.is_uppercase())
    }
}

/// The seed tokenizer: a forward scan trying each matcher at every token
/// start.
struct SeedTokenizer<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> SeedTokenizer<'a> {
    fn rest(&self) -> &'a str {
        &self.text[self.pos..]
    }

    fn skip_whitespace(&mut self) {
        let rest = self.rest();
        let trimmed = rest.trim_start();
        self.pos += rest.len() - trimmed.len();
    }

    fn match_url(&self) -> Option<usize> {
        let rest = self.rest();
        let bytes = rest.as_bytes();
        let has_prefix =
            |p: &[u8]| bytes.len() >= p.len() && bytes[..p.len()].eq_ignore_ascii_case(p);
        let is_url = has_prefix(b"http://") || has_prefix(b"https://") || has_prefix(b"www.");
        if !is_url {
            return None;
        }
        let end = rest.find(char::is_whitespace).unwrap_or(rest.len());
        Some(end)
    }

    fn match_sigil(&self, sigil: char) -> Option<usize> {
        let rest = self.rest();
        let mut chars = rest.char_indices();
        let (_, first) = chars.next()?;
        if first != sigil {
            return None;
        }
        let mut end = sigil.len_utf8();
        for (i, c) in chars {
            if c.is_alphanumeric() || c == '_' {
                end = i + c.len_utf8();
            } else {
                break;
            }
        }
        (end > sigil.len_utf8()).then_some(end)
    }

    fn match_emoticon(&self) -> Option<usize> {
        let rest = self.rest();
        let mut best = None;
        for table in [lexicons::POSITIVE_EMOTICONS, lexicons::NEGATIVE_EMOTICONS] {
            for emo in table {
                if let Some(after) = rest.strip_prefix(emo) {
                    let boundary = after
                        .chars()
                        .next()
                        .map_or(true, |c| c.is_whitespace() || !c.is_alphanumeric());
                    if boundary && best.map_or(true, |b| emo.len() > b) {
                        best = Some(emo.len());
                    }
                }
            }
        }
        best
    }

    #[allow(clippy::if_same_then_else)]
    fn match_number(&self) -> Option<usize> {
        let rest = self.rest();
        let first = rest.chars().next()?;
        if !first.is_ascii_digit() {
            return None;
        }
        let mut end = 0;
        let mut chars = rest.char_indices().peekable();
        while let Some((i, c)) = chars.next() {
            if c.is_ascii_digit() {
                end = i + 1;
            } else if (c == '.' || c == ',')
                && chars.peek().is_some_and(|(_, n)| n.is_ascii_digit())
            {
                end = i + 1;
            } else {
                break;
            }
        }
        Some(end)
    }

    #[allow(clippy::if_same_then_else)]
    fn match_word(&self) -> Option<usize> {
        let rest = self.rest();
        let first = rest.chars().next()?;
        if !first.is_alphabetic() {
            return None;
        }
        let mut end = 0;
        let mut chars = rest.char_indices().peekable();
        while let Some((i, c)) = chars.next() {
            if c.is_alphabetic() {
                end = i + c.len_utf8();
            } else if (c == '\'' || c == '’' || c == '-')
                && i > 0
                && chars.peek().is_some_and(|(_, n)| n.is_alphabetic())
            {
                end = i + c.len_utf8();
            } else {
                break;
            }
        }
        Some(end)
    }
}

impl<'a> Iterator for SeedTokenizer<'a> {
    type Item = Token<'a>;

    fn next(&mut self) -> Option<Token<'a>> {
        self.skip_whitespace();
        if self.pos >= self.text.len() {
            return None;
        }
        let start = self.pos;
        let (len, kind) = if let Some(len) = self.match_url() {
            (len, TokenKind::Url)
        } else if let Some(len) = self.match_sigil('@') {
            (len, TokenKind::Mention)
        } else if let Some(len) = self.match_sigil('#') {
            (len, TokenKind::Hashtag)
        } else if let Some(len) = self.match_emoticon() {
            (len, TokenKind::Emoticon)
        } else if let Some(len) = self.match_number() {
            (len, TokenKind::Number)
        } else if let Some(len) = self.match_word() {
            (len, TokenKind::Word)
        } else {
            let c = self.rest().chars().next()?;
            let kind = if lexicons::is_emoji_char(c) {
                TokenKind::Emoticon
            } else {
                TokenKind::Punctuation
            };
            let mut len = c.len_utf8();
            if kind == TokenKind::Emoticon {
                if let Some(next) = self.rest()[len..].chars().next() {
                    if next == '\u{FE0F}' {
                        len += next.len_utf8();
                    }
                }
            }
            (len, kind)
        };
        self.pos = start + len;
        Some(Token { text: &self.text[start..start + len], kind, start })
    }
}

/// The seed `tokenize`.
fn seed_tokenize(text: &str) -> Vec<Token<'_>> {
    SeedTokenizer { text, pos: 0 }.collect()
}

/// The seed preprocessing filter (`preprocess::keep_token`).
fn seed_keep(token: &Token<'_>) -> bool {
    const TWEET_ABBREVIATIONS: &[&str] = &["rt", "mt", "ht", "cc", "dm", "prt", "via"];
    token.kind == TokenKind::Word
        && !TWEET_ABBREVIATIONS.iter().any(|a| token.text.eq_ignore_ascii_case(a))
        && !lexicons::positive_emoticon_set().contains(token.text)
        && !lexicons::negative_emoticon_set().contains(token.text)
}

fn seed_squeeze_repeats(word: &str) -> (String, bool) {
    let mut out = String::with_capacity(word.len());
    let mut prev: Option<char> = None;
    let mut run = 0usize;
    let mut emphasized = false;
    for c in word.chars() {
        if Some(c) == prev {
            run += 1;
            if run >= 3 {
                emphasized = true;
            }
            if run <= 2 {
                out.push(c);
            }
        } else {
            prev = Some(c);
            run = 1;
            out.push(c);
        }
    }
    (out, emphasized)
}

fn seed_lookup_valence(lower: &str) -> Option<i8> {
    let map = lexicons::sentiment_map();
    if let Some(&v) = map.get(lower) {
        return Some(v);
    }
    let (squeezed, _) = seed_squeeze_repeats(lower);
    if squeezed != lower {
        if let Some(&v) = map.get(squeezed.as_str()) {
            return Some(v);
        }
    }
    let fully: String = {
        let mut s = String::with_capacity(lower.len());
        let mut prev = None;
        for c in lower.chars() {
            if Some(c) != prev {
                s.push(c);
            }
            prev = Some(c);
        }
        s
    };
    if fully != lower {
        if let Some(&v) = map.get(fully.as_str()) {
            return Some(v);
        }
    }
    None
}

fn seed_clamp_strength(v: i32) -> i8 {
    if v > 0 {
        v.clamp(2, 5) as i8
    } else if v < 0 {
        v.clamp(-5, -2) as i8
    } else {
        0
    }
}

/// The seed `score_tokens` (positive strength, negative strength).
fn seed_score_tokens(tokens: &[Token<'_>]) -> (i8, i8) {
    let mut max_pos: i8 = 1;
    let mut min_neg: i8 = -1;
    let lowers: Vec<Option<String>> = tokens
        .iter()
        .map(|t| (t.kind == TokenKind::Word).then(|| t.text.to_lowercase()))
        .collect();
    for (i, tok) in tokens.iter().enumerate() {
        let base: i32 = match tok.kind {
            TokenKind::Emoticon => {
                let bare = tok.text.trim_end_matches('\u{FE0F}');
                if lexicons::positive_emoticon_set().contains(tok.text)
                    || lexicons::positive_emoji_set().contains(bare)
                {
                    2
                } else if lexicons::negative_emoticon_set().contains(tok.text)
                    || lexicons::negative_emoji_set().contains(bare)
                {
                    -2
                } else {
                    0
                }
            }
            TokenKind::Word => {
                let lower = lowers[i].as_deref().expect("word token has lowercase form");
                match seed_lookup_valence(lower) {
                    Some(v) => v as i32,
                    None => 0,
                }
            }
            _ => 0,
        };
        if base == 0 {
            continue;
        }
        let mut strength = base;
        let sign = if base > 0 { 1 } else { -1 };
        if tok.kind == TokenKind::Word {
            if i > 0 {
                if let Some(prev) = lowers[i - 1].as_deref() {
                    if let Some(&inc) = lexicons::booster_map().get(prev) {
                        strength += sign * inc as i32;
                    } else if lexicons::diminisher_set().contains(prev) {
                        strength -= sign;
                    }
                }
            }
            let negated = (i.saturating_sub(2)..i).any(|j| {
                lowers[j].as_deref().is_some_and(|w| lexicons::negator_set().contains(w))
            });
            if negated {
                strength = -sign * (strength.abs() - 1);
            }
            let (_, emphasized) = seed_squeeze_repeats(&tok.text.to_lowercase());
            if emphasized || tok.is_shouting() {
                strength += if strength > 0 { 1 } else { -1 };
            }
        }
        if tokens.get(i + 1).is_some_and(|t| t.kind == TokenKind::Punctuation && t.text == "!") {
            strength += if strength > 0 { 1 } else { -1 };
        }
        let s = seed_clamp_strength(strength);
        if s > 0 {
            max_pos = max_pos.max(s);
        } else if s < 0 {
            min_neg = min_neg.min(s);
        }
    }
    (max_pos, min_neg)
}

/// The seed `count_word_sentences` (segment-close bookkeeping variant).
fn seed_count_word_sentences(text: &str, tokens: &[Token<'_>]) -> usize {
    let word_starts: Vec<usize> =
        tokens.iter().filter(|t| t.kind == TokenKind::Word).map(|t| t.start).collect();
    if word_starts.is_empty() {
        return 0;
    }
    let mut count = 0usize;
    let mut seg_start = 0usize;
    let mut in_terminator = false;
    let mut wi = 0usize;
    let close_segment = |start: usize, end: usize, wi: &mut usize, count: &mut usize| {
        let mut has_word = false;
        while *wi < word_starts.len() && word_starts[*wi] < end {
            if word_starts[*wi] >= start {
                has_word = true;
            }
            *wi += 1;
        }
        if has_word {
            *count += 1;
        }
    };
    for (i, c) in text.char_indices() {
        let is_term = matches!(c, '.' | '!' | '?' | '\n');
        if is_term && !in_terminator {
            close_segment(seg_start, i, &mut wi, &mut count);
            in_terminator = true;
        } else if !is_term && in_terminator {
            seg_start = i;
            in_terminator = false;
        }
    }
    if !in_terminator {
        close_segment(seg_start, text.len(), &mut wi, &mut count);
    }
    count
}

const SEED_ADJ_SUFFIXES: &[&str] =
    &["ous", "ful", "ive", "able", "ible", "al", "ic", "less", "ish", "ary", "est"];
const SEED_VERB_SUFFIXES: &[&str] = &["ing", "ed", "ize", "ise", "ify", "ate"];

/// The seed `tag_word` (unconditional `to_lowercase`).
fn seed_tag_word(word: &str) -> PosTag {
    let lower = word.to_lowercase();
    let w = lower.as_str();
    if lexicons::pronoun_set().contains(w) {
        return PosTag::Pronoun;
    }
    if lexicons::determiner_set().contains(w) {
        return PosTag::Determiner;
    }
    if lexicons::preposition_set().contains(w) {
        return PosTag::Preposition;
    }
    if lexicons::conjunction_set().contains(w) {
        return PosTag::Conjunction;
    }
    if lexicons::interjection_set().contains(w) {
        return PosTag::Interjection;
    }
    if lexicons::adverb_set().contains(w) {
        return PosTag::Adverb;
    }
    if lexicons::adjective_set().contains(w) {
        return PosTag::Adjective;
    }
    if lexicons::verb_set().contains(w) {
        return PosTag::Verb;
    }
    if w.len() > 4 && w.ends_with("ly") {
        return PosTag::Adverb;
    }
    for suf in SEED_VERB_SUFFIXES {
        if w.len() > suf.len() + 2 && w.ends_with(suf) {
            return PosTag::Verb;
        }
    }
    for suf in SEED_ADJ_SUFFIXES {
        if w.len() > suf.len() + 2 && w.ends_with(suf) {
            return PosTag::Adjective;
        }
    }
    PosTag::Noun
}

/// The seed `FeatureExtractor::extract`: feature vector + lowercased words.
fn seed_extract(tweet: &Tweet, bow: &AdaptiveBow, preprocess: bool) -> (Vec<f64>, Vec<String>) {
    let tokens = seed_tokenize(&tweet.text);
    let mut num_hashtags = 0usize;
    let mut num_urls = 0usize;
    let mut num_upper = 0usize;
    for t in &tokens {
        match t.kind {
            TokenKind::Hashtag => num_hashtags += 1,
            TokenKind::Url => num_urls += 1,
            TokenKind::Word if t.is_shouting() => num_upper += 1,
            _ => {}
        }
    }
    let (sent_pos, sent_neg) = seed_score_tokens(&tokens);
    let words: Vec<String> = if preprocess {
        tokens.iter().filter(|t| seed_keep(t)).map(|t| t.text.to_lowercase()).collect()
    } else {
        tokens
            .iter()
            .filter(|t| !matches!(t.kind, TokenKind::Punctuation | TokenKind::Emoticon))
            .map(|t| t.text.to_lowercase())
            .collect()
    };
    let mut adjectives = 0usize;
    let mut adverbs = 0usize;
    let mut verbs = 0usize;
    for w in &words {
        match seed_tag_word(w) {
            PosTag::Adjective => adjectives += 1,
            PosTag::Adverb => adverbs += 1,
            PosTag::Verb => verbs += 1,
            _ => {}
        }
    }
    let num_sentences = seed_count_word_sentences(&tweet.text, &tokens).max(1);
    let words_per_sentence = words.len() as f64 / num_sentences as f64;
    let mean_word_length = if words.is_empty() {
        0.0
    } else {
        words.iter().map(|w| w.chars().count()).sum::<usize>() as f64 / words.len() as f64
    };
    let swears = words.iter().filter(|w| lexicons::is_swear(w)).count();
    let bow_score = bow.score(words.iter().map(String::as_str));
    let user = &tweet.user;
    let features = vec![
        user.account_age_days,
        user.statuses_count as f64,
        user.listed_count as f64,
        user.followers_count as f64,
        user.friends_count as f64,
        num_hashtags as f64,
        num_upper as f64,
        num_urls as f64,
        adjectives as f64,
        adverbs as f64,
        verbs as f64,
        words_per_sentence,
        mean_word_length,
        sent_pos as f64,
        sent_neg as f64,
        swears as f64,
        bow_score as f64,
    ];
    (features, words)
}

// ---------------------------------------------------------------------------
// The parity checks.
// ---------------------------------------------------------------------------

/// A BoW whose membership extends beyond the seed lexicon, so the parity
/// run also exercises `bowScore` against promoted vocabulary.
fn grown_bow() -> AdaptiveBow {
    let mut bow = AdaptiveBow::with_defaults();
    for _ in 0..2000 {
        bow.observe(["zorgon", "sod"], true);
        bow.observe(["weather", "tea"], false);
    }
    bow
}

/// Both library extraction paths against the seed, on one tweet.
fn assert_matches_seed(
    extractor: &FeatureExtractor,
    scratch: &mut ExtractScratch,
    tweet: &Tweet,
    bow: &AdaptiveBow,
) {
    let preprocess = extractor.preprocessing_enabled();
    let (golden_features, golden_words) = seed_extract(tweet, bow, preprocess);
    assert_eq!(golden_features.len(), NUM_FEATURES);

    // Allocating path (itself a wrapper over the scratch path).
    let ext = extractor.extract(tweet, bow);
    assert_eq!(
        ext.features, golden_features,
        "extract() diverged from seed (preprocess={preprocess}): {:?}",
        tweet.text
    );
    assert_eq!(ext.words, golden_words, "word sequence diverged: {:?}", tweet.text);

    // Scratch path, with the buffers reused across every call.
    extractor.extract_into(tweet, bow, scratch);
    assert_eq!(
        scratch.features(),
        golden_features.as_slice(),
        "extract_into() diverged from seed (preprocess={preprocess}): {:?}",
        tweet.text
    );
    let words: Vec<&str> = scratch.words().collect();
    assert_eq!(words, golden_words, "scratch words diverged: {:?}", tweet.text);
}

/// The library tokenizer (both forms) against the seed tokenizer.
fn assert_tokens_match_seed(text: &str, spans: &mut Vec<TokenSpan>) {
    let golden = seed_tokenize(text);
    let tokens = tokenize(text);
    tokenize_into(text, spans);
    assert_eq!(tokens.len(), golden.len(), "token count diverged from seed: {text:?}");
    assert_eq!(spans.len(), golden.len(), "span count diverged from seed: {text:?}");
    for ((tok, span), seed) in tokens.iter().zip(spans.iter()).zip(&golden) {
        assert_eq!((tok.text, tok.kind, tok.start), (seed.text, seed.kind, seed.start), "{text:?}");
        assert_eq!(tok.is_shouting(), seed.is_shouting(), "{text:?}");
        assert_eq!((span.text(text), span.kind), (seed.text, seed.kind), "{text:?}");
        assert_eq!((span.start as usize, span.end as usize), (seed.start, seed.end()), "{text:?}");
    }
}

fn tweet_with_text(text: &str) -> Tweet {
    let mut t = generate_abusive(&AbusiveConfig::small(1, 7)).remove(0).tweet;
    t.text = text.to_string();
    t
}

#[test]
fn extract_matches_seed_implementation_over_corpus() {
    let corpus = generate_abusive(&AbusiveConfig::small(1000, 0x90_1D));
    let bow = grown_bow();
    for preprocess in [true, false] {
        let extractor = FeatureExtractor::new(ExtractorConfig { preprocess });
        let mut scratch = ExtractScratch::new();
        for lt in &corpus {
            assert_matches_seed(&extractor, &mut scratch, &lt.tweet, &bow);
        }
    }
}

#[test]
fn token_spans_mirror_owned_tokens_over_corpus() {
    let corpus = generate_abusive(&AbusiveConfig::small(1000, 0xC0FFE));
    let mut spans: Vec<TokenSpan> = Vec::new();
    for lt in &corpus {
        assert_tokens_match_seed(&lt.tweet.text, &mut spans);
    }
}

/// Behaviours the single scan must reproduce exactly, one group per line.
const TRAPS: &[&str] = &[
    // Emoticon filter: case-sensitive on the raw spelling (`Xd` survives).
    "xd xD XD Xd xD5 XD5 Xd5 xd5 lolxD xDxD",
    // Abbreviations: ASCII case-insensitive; non-ASCII look-alikes stay.
    "RT rt Rt rT MT via VIA Via prt PRT cc DM vİa \u{212A} rt5 RT!",
    // Terminators anywhere in the raw text, URLs and numbers included.
    "see t.co/abc http://t.co/a.b?c=d! 2.5 hours... wow!? ok\nnext line",
    "http://x.co/a.b.c! #tag. @user? 3.14.15 1,000,000. 42. .5 5.",
    "one.two three!four five?six\n\nseven",
    // Booster only immediately before; negator among two tokens of any kind.
    "RT very good! not a good idea, NOT BAD!!! soooo goooood baaaad",
    "very, good. very good. not , good. not @user good. not :) good. not not good",
    "so so bad really bad slightly awful kinda nice hardly terrible",
    "dont hate isnt great won't love don’t love",
    // Preprocessing drops RT, but the scorer still sees it as a word.
    "RT good RT bad rt very nice",
    // Unicode: alphabetic, final sigma, ligatures, uppercase shouting.
    "ΟΔΟΣ ΚΑΛΑ Σ ﬁne İstanbul ŞOK ΆΣΧΗΜΟΣ café NAÏVE Ǆemal ǅ",
    "Καλά VERY bad day ＡＢＣ ｄｅｆ ١٢٣ x² Ⅻ ª",
    // Emoji and the variation selector.
    "nice 😀 ❤\u{FE0F} ❤ 😡\u{FE0F}\u{FE0F} 💔 ok ☺\u{FE0F}good \u{FE0F}",
    // Joiners.
    "don't don’t self-aware dogs' ’tis -x x- ’ a--b a''b a-’b",
    // Sigils.
    "@ # @_ #_ @é #日本 @@user ##tag @user_1! #a-b email@host.com",
    // Emoticon boundaries and longest match.
    ":pizza :p :-) :-)) >:( D: Dx D:x T_T T_Tx <3 <33 :'( :c :C :cc ^_^ =D=D",
    // URL prefixes in any case.
    "WWW.SITE.COM HTTPS://X.Y http:/no www wwwx www. Http://a\u{A0}b",
    // Unicode whitespace separates tokens.
    "\u{A0}word\u{2028}word\u{3000}WORD\u{85}x\u{1680}y",
    "",
    "   \t\n ",
    "...",
    "!!!",
    "a",
];

#[test]
fn traps_match_seed_implementation() {
    let bow = grown_bow();
    let mut spans = Vec::new();
    for preprocess in [true, false] {
        let extractor = FeatureExtractor::new(ExtractorConfig { preprocess });
        let mut scratch = ExtractScratch::new();
        for text in TRAPS {
            assert_tokens_match_seed(text, &mut spans);
            assert_matches_seed(&extractor, &mut scratch, &tweet_with_text(text), &bow);
        }
    }
}

/// Fragments that reach the scan's special cases far more often than
/// uniformly random characters would.
const FRAGMENTS: &[&str] = &[
    "good", "GOOD", "Good", "bad", "BAD", "not", "NOT", "very", "so", "slightly", "never",
    "hate", "love", "looooove", "baaad", "xd", "xD", "XD", "Xd", "RT", "rt", "via", "vİa",
    "the", "well", "quickly", "running", "courageous", "asshole", "zorgon", "don't", "don’t",
    "self-aware", "http://t.co/a.b", "www.x.co", "2.5", "3,000", "42", ":)", ":-(", "D:",
    "<3", ":p", "T_T", "😀", "❤\u{FE0F}", "😡", "💔", "café", "ΟΔΟΣ", "Σ", "ﬁ", "İ",
    "\u{212A}", "日本", "!", "?", ".", "...", "'", "’", "-", "@", "#", "@user", "#Tag", "_",
    ",", "\u{FE0F}",
];

const SEPARATORS: &[&str] = &["", "", " ", " ", " ", "  ", "\n", "\t", "\u{A0}", "\u{3000}"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random mixes of lexicon words, token-kind fragments, Unicode and
    /// separators (including none, so fragments fuse into new tokens).
    #[test]
    fn random_fragment_mixes_match_seed(
        parts in prop::collection::vec(
            (prop::sample::select(FRAGMENTS.to_vec()), prop::sample::select(SEPARATORS.to_vec())),
            0..24,
        ),
    ) {
        let text: String = parts.iter().flat_map(|(f, sep)| [*f, *sep]).collect();
        let bow = grown_bow_cached();
        let mut spans = Vec::new();
        assert_tokens_match_seed(&text, &mut spans);
        for preprocess in [true, false] {
            let extractor = FeatureExtractor::new(ExtractorConfig { preprocess });
            assert_matches_seed(&extractor, &mut ExtractScratch::new(), &tweet_with_text(&text), bow);
        }
    }

    /// Random printable ASCII/Unicode strings.
    #[test]
    fn random_unicode_strings_match_seed(text in "\\PC{0,120}") {
        let bow = grown_bow_cached();
        let mut spans = Vec::new();
        assert_tokens_match_seed(&text, &mut spans);
        for preprocess in [true, false] {
            let extractor = FeatureExtractor::new(ExtractorConfig { preprocess });
            assert_matches_seed(&extractor, &mut ExtractScratch::new(), &tweet_with_text(&text), bow);
        }
    }
}

/// [`grown_bow`], built once for the property tests' many cases.
fn grown_bow_cached() -> &'static AdaptiveBow {
    static BOW: std::sync::OnceLock<AdaptiveBow> = std::sync::OnceLock::new();
    BOW.get_or_init(grown_bow)
}

#[test]
fn labeled_instances_agree_across_schemes() {
    let corpus = generate_abusive(&AbusiveConfig::small(200, 0x5EED));
    let bow = grown_bow();
    let extractor = FeatureExtractor::default();
    let mut scratch = ExtractScratch::new();
    for scheme in [ClassScheme::TwoClass, ClassScheme::ThreeClass] {
        for lt in &corpus {
            let legacy = extractor.labeled_instance(lt, scheme, &bow, 3);
            let through_scratch =
                extractor.labeled_instance_into(lt, scheme, &bow, 3, &mut scratch);
            match (legacy, through_scratch) {
                (None, None) => {} // out-of-scheme label on both paths
                (Some((inst, words)), Some(inst2)) => {
                    assert_eq!(inst.features, inst2.features);
                    assert_eq!(inst.label, inst2.label);
                    assert_eq!(inst.label, scheme.index_of(lt.label));
                    assert_eq!(inst.day, inst2.day);
                    assert_eq!(inst.tweet_id, inst2.tweet_id);
                    assert_eq!(inst.user_id, inst2.user_id);
                    let scratch_words: Vec<&str> = scratch.words().collect();
                    assert_eq!(words, scratch_words);
                }
                (a, b) => panic!(
                    "paths disagree on scheme membership: legacy={:?} scratch={:?}",
                    a.is_some(),
                    b.is_some()
                ),
            }
        }
    }
}

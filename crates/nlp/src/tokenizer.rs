//! Twitter-aware tokenizer.
//!
//! Splits raw tweet text into typed tokens: words, numbers, URLs, user
//! mentions, hashtags, emoticons, and punctuation. The preprocessing step of
//! the pipeline (Section III-A of the paper) drops URLs, mentions, hashtags,
//! numbers, punctuation, and tweet abbreviations such as `RT`; emitting them
//! as *typed* tokens here lets both the preprocessor and the basic text
//! features (`numHashtags`, `numUrls`, `numUpperCases`) consume a single
//! tokenization pass.
//!
//! The scan walks the text once. ASCII bytes are classified through a
//! 256-entry table; a `char` is decoded only at a byte `>= 0x80`, and then
//! the Unicode rules apply to it (`is_whitespace`, `is_alphabetic`,
//! `is_alphanumeric`, the emoji blocks). On the way the scan also records
//! what later passes would otherwise walk the text again for: whether a
//! word is shouting, an emoticon's valence, and the sentence-terminator
//! state behind `wordsPerSentence` (see [`crate::sentence`]).

use crate::lexicons;
use crate::sentence::SentenceCounter;
use std::sync::OnceLock;

/// ASCII whitespace, as `char::is_whitespace` defines it.
const WS: u8 = 1;
/// ASCII letter.
const ALPHA: u8 = 1 << 1;
/// ASCII uppercase letter.
const UPPER: u8 = 1 << 2;
/// ASCII digit.
const DIGIT: u8 = 1 << 3;
/// Mention/hashtag body character: ASCII letter, digit or `_`.
const IDENT: u8 = 1 << 4;
/// First byte of some emoticon in the emoticon lexicons.
const EMO: u8 = 1 << 5;

/// The scan's lookup tables, built once from the emoticon lexicons.
struct ScanTables {
    /// Class bits of every byte value (`0` for bytes `>= 0x80`).
    class: [u8; 256],
    /// `emoticons[lo..hi]` start with byte `b`, for `(lo, hi) = by_first[b]`.
    by_first: [(u16, u16); 256],
    /// Every emoticon with its valence, grouped by first byte, longest
    /// first within a group (so the first boundary-respecting match is the
    /// longest one).
    emoticons: Vec<(&'static str, i8)>,
}

fn scan_tables() -> &'static ScanTables {
    static TABLES: OnceLock<ScanTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut class = [0u8; 256];
        for b in 0..128u8 {
            let mut c = 0;
            if matches!(b, b'\t' | b'\n' | 0x0B | 0x0C | b'\r' | b' ') {
                c |= WS;
            }
            if b.is_ascii_alphabetic() {
                c |= ALPHA | IDENT;
            }
            if b.is_ascii_uppercase() {
                c |= UPPER;
            }
            if b.is_ascii_digit() {
                c |= DIGIT | IDENT;
            }
            if b == b'_' {
                c |= IDENT;
            }
            class[b as usize] = c;
        }
        let mut emoticons: Vec<(&'static str, i8)> = lexicons::POSITIVE_EMOTICONS
            .iter()
            .map(|&e| (e, 2))
            .chain(lexicons::NEGATIVE_EMOTICONS.iter().map(|&e| (e, -2)))
            .collect();
        // Stable: a spelling listed in both tables keeps the positive
        // reading, as the scorer's positive-first check did.
        emoticons.sort_by_key(|(e, _)| (e.as_bytes()[0], std::cmp::Reverse(e.len())));
        let mut by_first = [(0u16, 0u16); 256];
        for (i, (e, _)) in emoticons.iter().enumerate() {
            let b = e.as_bytes()[0] as usize;
            class[b] |= EMO;
            if by_first[b].1 == 0 {
                by_first[b].0 = i as u16;
            }
            by_first[b].1 = i as u16 + 1;
        }
        ScanTables { class, by_first, emoticons }
    })
}

/// The syntactic category of a raw token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenKind {
    /// An alphabetic word (may contain internal apostrophes, e.g. `don't`).
    Word,
    /// A run of digits, possibly with `.`/`,` separators (e.g. `3,000`).
    Number,
    /// A URL (`http://…`, `https://…`, or `www.…`).
    Url,
    /// A user mention (`@handle`).
    Mention,
    /// A hashtag (`#topic`).
    Hashtag,
    /// An emoticon from the emoticon lexicons (e.g. `:)`, `D:`).
    Emoticon,
    /// A single punctuation mark or symbol.
    Punctuation,
}

/// A token slice borrowed from the input text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'a> {
    /// The token text, borrowed from the input.
    pub text: &'a str,
    /// Its syntactic category.
    pub kind: TokenKind,
    /// Byte offset of the token's first byte in the input.
    pub start: usize,
}

impl Token<'_> {
    /// Byte offset one past the token's last byte.
    pub fn end(&self) -> usize {
        self.start + self.text.len()
    }

    /// True when every alphabetic character in the token is uppercase and
    /// the token contains at least two alphabetic characters (the paper's
    /// `numUpperCases` counts "uppercase words", i.e. shouting).
    pub fn is_shouting(&self) -> bool {
        is_shouting_text(self.text)
    }
}

/// See [`Token::is_shouting`]. The scan computes the same flag for word
/// tokens as it reads them.
pub(crate) fn is_shouting_text(text: &str) -> bool {
    let mut letters = 0usize;
    for c in text.chars().filter(|c| c.is_alphabetic()) {
        if !c.is_uppercase() {
            return false;
        }
        letters += 1;
    }
    letters >= 2
}

/// A token identified by byte offsets into its source text.
///
/// The lifetime-free form of [`Token`]: spans can live in long-lived
/// scratch buffers (`Vec<TokenSpan>`) that are refilled tweet after tweet
/// without borrowing the tweet's text. Offsets are `u32` — tweets are
/// bounded at a few kilobytes, and the narrow layout keeps scratch buffers
/// dense.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TokenSpan {
    /// Byte offset of the token's first byte in the source text.
    pub start: u32,
    /// Byte offset one past the token's last byte.
    pub end: u32,
    /// Its syntactic category.
    pub kind: TokenKind,
}

impl TokenSpan {
    /// The token text within its source.
    pub fn text<'a>(&self, source: &'a str) -> &'a str {
        &source[self.start as usize..self.end as usize]
    }

    /// See [`Token::is_shouting`].
    pub fn is_shouting(&self, source: &str) -> bool {
        is_shouting_text(self.text(source))
    }
}

/// Tokenize `text` into a reusable span buffer (cleared first).
///
/// Produces exactly the token stream of [`tokenize`], as offsets instead of
/// borrowed slices: reusing `out` across calls amortizes the token vector,
/// the one per-tweet allocation [`tokenize`] cannot avoid. `text` must be
/// shorter than 4 GiB so offsets fit in `u32` (any real tweet is).
pub fn tokenize_into(text: &str, out: &mut Vec<TokenSpan>) {
    out.clear();
    let mut scanner = Tokenizer::new(text);
    while let Some(t) = scanner.scan_token() {
        out.push(t.span);
    }
}

/// Tokenize `text` into typed tokens.
///
/// The tokenizer is a single forward scan with longest-match rules for the
/// multi-character token kinds (URL, mention, hashtag, emoticon, number).
/// Whitespace separates tokens and is never emitted.
pub fn tokenize(text: &str) -> Vec<Token<'_>> {
    Tokenizer::new(text).collect()
}

/// One token of the scan: its span plus what the scan learned reading it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Scanned {
    /// Where the token is and what kind it is.
    pub(crate) span: TokenSpan,
    /// Word tokens: at least two letters, every one uppercase.
    pub(crate) shouting: bool,
    /// Emoticon tokens: `±2` by the emoticon/emoji lexicons, else `0`.
    pub(crate) valence: i8,
}

/// Iterator form of [`tokenize`], for callers that want to stop early.
pub struct Tokenizer<'a> {
    text: &'a str,
    pos: usize,
    tables: &'static ScanTables,
    sentences: SentenceCounter,
}

impl<'a> Tokenizer<'a> {
    /// Create a tokenizer over `text`.
    pub fn new(text: &'a str) -> Self {
        Tokenizer { text, pos: 0, tables: scan_tables(), sentences: SentenceCounter::default() }
    }

    /// Sentences with at least one word among the text scanned so far (the
    /// whole text once the scan is exhausted); see
    /// [`crate::sentence::count_word_sentences`].
    pub(crate) fn word_sentences(&self) -> usize {
        self.sentences.finish()
    }

    fn class(&self, b: u8) -> u8 {
        self.tables.class[b as usize]
    }

    /// The char starting at byte `i` (a char boundary inside the text).
    fn char_at(&self, i: usize) -> char {
        self.text[i..].chars().next().unwrap_or('\0')
    }

    /// Whether the char at byte `i` is alphabetic (`false` past the end).
    fn alphabetic_at(&self, i: usize) -> bool {
        match self.text.as_bytes().get(i) {
            None => false,
            Some(&b) if b < 0x80 => self.class(b) & ALPHA != 0,
            Some(_) => self.char_at(i).is_alphabetic(),
        }
    }

    /// Scan the next token, feeding every character on the way to the
    /// sentence counter.
    pub(crate) fn scan_token(&mut self) -> Option<Scanned> {
        let bytes = self.text.as_bytes();
        // Whitespace: `\n` is the one sentence terminator among it.
        let start = loop {
            let &b = bytes.get(self.pos)?;
            if b < 0x80 {
                if self.class(b) & WS == 0 {
                    break self.pos;
                }
                self.sentences.byte(b);
                self.pos += 1;
            } else {
                let c = self.char_at(self.pos);
                if !c.is_whitespace() {
                    break self.pos;
                }
                self.sentences.other();
                self.pos += c.len_utf8();
            }
        };
        let b0 = bytes[start];
        let mut shouting = false;
        let mut valence = 0;
        let (end, kind) = if let Some(end) = self.match_url(start) {
            (end, TokenKind::Url)
        } else if let Some(end) = self.match_sigil(start, b'@') {
            (end, TokenKind::Mention)
        } else if let Some(end) = self.match_sigil(start, b'#') {
            (end, TokenKind::Hashtag)
        } else if let Some((end, v)) = self.match_emoticon(start) {
            valence = v;
            (end, TokenKind::Emoticon)
        } else if let Some(end) = self.match_number(start) {
            (end, TokenKind::Number)
        } else if let Some((end, loud)) = self.match_word(start) {
            shouting = loud;
            (end, TokenKind::Word)
        } else if b0 < 0x80 {
            // A single punctuation mark or symbol.
            self.sentences.byte(b0);
            (start + 1, TokenKind::Punctuation)
        } else {
            // Emoji count as emoticons (they carry sentiment, not syntax),
            // absorbing a trailing variation selector (U+FE0F); any other
            // character is a symbol.
            self.sentences.other();
            let c = self.char_at(start);
            let mut end = start + c.len_utf8();
            if lexicons::is_emoji_char(c) {
                if self.text[end..].starts_with('\u{FE0F}') {
                    end += '\u{FE0F}'.len_utf8();
                }
                valence = lexicons::emoticon_valence(&self.text[start..end]);
                (end, TokenKind::Emoticon)
            } else {
                (end, TokenKind::Punctuation)
            }
        };
        self.pos = end;
        Some(Scanned {
            span: TokenSpan { start: start as u32, end: end as u32, kind },
            shouting,
            valence,
        })
    }

    /// End of a URL (`http://`, `https://` or `www.`, any case) starting at
    /// `s`: it runs to the next whitespace.
    fn match_url(&mut self, s: usize) -> Option<usize> {
        let rest = &self.text.as_bytes()[s..];
        if !matches!(rest[0], b'h' | b'H' | b'w' | b'W') {
            return None;
        }
        let has_prefix = |p: &[u8]| rest.len() >= p.len() && rest[..p.len()].eq_ignore_ascii_case(p);
        if !(has_prefix(b"http://") || has_prefix(b"https://") || has_prefix(b"www.")) {
            return None;
        }
        let mut i = s;
        while let Some(&b) = self.text.as_bytes().get(i) {
            if b < 0x80 {
                if self.class(b) & WS != 0 {
                    break;
                }
                // `t.co` and friends: terminators inside a URL still close
                // a sentence.
                self.sentences.byte(b);
                i += 1;
            } else {
                let c = self.char_at(i);
                if c.is_whitespace() {
                    break;
                }
                self.sentences.other();
                i += c.len_utf8();
            }
        }
        Some(i)
    }

    /// End of a mention/hashtag starting at `s`: the sigil, then at least
    /// one alphanumeric or `_` character.
    fn match_sigil(&mut self, s: usize, sigil: u8) -> Option<usize> {
        let bytes = self.text.as_bytes();
        if bytes[s] != sigil {
            return None;
        }
        let mut i = s + 1;
        while let Some(&b) = bytes.get(i) {
            if b < 0x80 {
                if self.class(b) & IDENT == 0 {
                    break;
                }
                i += 1;
            } else {
                let c = self.char_at(i);
                if !c.is_alphanumeric() {
                    break;
                }
                i += c.len_utf8();
            }
        }
        // A bare sigil with no body is punctuation, not a mention/hashtag.
        if i == s + 1 {
            return None;
        }
        self.sentences.other();
        Some(i)
    }

    /// End and valence of the longest emoticon starting at `s` that ends
    /// at a boundary (so `:pizza` does not match `:p`).
    fn match_emoticon(&mut self, s: usize) -> Option<(usize, i8)> {
        let b0 = self.text.as_bytes()[s];
        if self.class(b0) & EMO == 0 {
            return None;
        }
        let (lo, hi) = self.tables.by_first[b0 as usize];
        let rest = &self.text[s..];
        let &(emo, valence) = self.tables.emoticons[lo as usize..hi as usize]
            .iter()
            .find(|(emo, _)| rest.starts_with(emo) && self.boundary_at(s + emo.len()))?;
        for &b in emo.as_bytes() {
            self.sentences.byte(b);
        }
        Some((s + emo.len(), valence))
    }

    /// Whether a token may end before byte `i`: end of text, whitespace,
    /// or a non-alphanumeric character.
    fn boundary_at(&self, i: usize) -> bool {
        match self.text.as_bytes().get(i) {
            None => true,
            Some(&b) if b < 0x80 => self.class(b) & (ALPHA | DIGIT) == 0,
            Some(_) => {
                let c = self.char_at(i);
                c.is_whitespace() || !c.is_alphanumeric()
            }
        }
    }

    /// End of a number starting at `s`: ASCII digits, with `.`/`,`
    /// separators that are followed by a digit (`3,000`, `2.5`).
    fn match_number(&mut self, s: usize) -> Option<usize> {
        let bytes = self.text.as_bytes();
        if self.class(bytes[s]) & DIGIT == 0 {
            return None;
        }
        let mut i = s;
        while let Some(&b) = bytes.get(i) {
            let digit = self.class(b) & DIGIT != 0;
            let separator = matches!(b, b'.' | b',')
                && bytes.get(i + 1).is_some_and(|n| n.is_ascii_digit());
            if !(digit || separator) {
                break;
            }
            self.sentences.byte(b);
            i += 1;
        }
        Some(i)
    }

    /// End of a word starting at `s`, and whether it is shouting. Words are
    /// alphabetic and may contain internal apostrophes (`don't`, `don’t`)
    /// and hyphens (`self-aware`).
    fn match_word(&mut self, s: usize) -> Option<(usize, bool)> {
        if !self.alphabetic_at(s) {
            return None;
        }
        let bytes = self.text.as_bytes();
        let (mut i, mut letters, mut all_upper) = (s, 0usize, true);
        while let Some(&b) = bytes.get(i) {
            if b < 0x80 {
                let class = self.class(b);
                if class & ALPHA != 0 {
                    letters += 1;
                    all_upper &= class & UPPER != 0;
                    i += 1;
                } else if (b == b'\'' || b == b'-') && i > s && self.alphabetic_at(i + 1) {
                    i += 1;
                } else {
                    break;
                }
            } else {
                let c = self.char_at(i);
                let len = c.len_utf8();
                if c.is_alphabetic() {
                    letters += 1;
                    all_upper &= c.is_uppercase();
                    i += len;
                } else if c == '’' && i > s && self.alphabetic_at(i + len) {
                    i += len;
                } else {
                    break;
                }
            }
        }
        // Word characters are never sentence terminators.
        self.sentences.word();
        Some((i, letters >= 2 && all_upper))
    }
}

impl<'a> Iterator for Tokenizer<'a> {
    type Item = Token<'a>;

    fn next(&mut self) -> Option<Token<'a>> {
        let t = self.scan_token()?;
        let (start, end) = (t.span.start as usize, t.span.end as usize);
        Some(Token { text: &self.text[start..end], kind: t.span.kind, start })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(text: &str) -> Vec<(String, TokenKind)> {
        tokenize(text).into_iter().map(|t| (t.text.to_string(), t.kind)).collect()
    }

    #[test]
    fn empty_and_whitespace_inputs() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("   \t\n  ").is_empty());
    }

    #[test]
    fn plain_words() {
        let toks = kinds("hello world");
        assert_eq!(
            toks,
            vec![
                ("hello".into(), TokenKind::Word),
                ("world".into(), TokenKind::Word)
            ]
        );
    }

    #[test]
    fn urls_are_single_tokens() {
        let toks = kinds("see http://t.co/abc123 now");
        assert_eq!(toks[1], ("http://t.co/abc123".into(), TokenKind::Url));
        let toks = kinds("HTTPS://EXAMPLE.COM/x");
        assert_eq!(toks[0].1, TokenKind::Url);
        let toks = kinds("www.example.com rocks");
        assert_eq!(toks[0].1, TokenKind::Url);
        assert_eq!(toks[1].1, TokenKind::Word);
    }

    #[test]
    fn mentions_and_hashtags() {
        let toks = kinds("@alice_99 check #MeanBirds2017 out");
        assert_eq!(toks[0], ("@alice_99".into(), TokenKind::Mention));
        assert_eq!(toks[2], ("#MeanBirds2017".into(), TokenKind::Hashtag));
    }

    #[test]
    fn bare_sigils_are_punctuation() {
        let toks = kinds("a @ b # c");
        assert_eq!(toks[1], ("@".into(), TokenKind::Punctuation));
        assert_eq!(toks[3], ("#".into(), TokenKind::Punctuation));
    }

    #[test]
    fn emoticons() {
        let toks = kinds("great :) awful :(");
        assert_eq!(toks[1], (":)".into(), TokenKind::Emoticon));
        assert_eq!(toks[3], (":(".into(), TokenKind::Emoticon));
    }

    #[test]
    fn longest_emoticon_wins() {
        // ":-)" should match as one emoticon, not ":" + "-" + ")".
        let toks = kinds(":-)");
        assert_eq!(toks, vec![(":-)".into(), TokenKind::Emoticon)]);
    }

    #[test]
    fn emoticon_requires_boundary() {
        // ":pizza" must not match the ":p" emoticon.
        let toks = kinds(":pizza");
        assert_eq!(toks[0], (":".into(), TokenKind::Punctuation));
        assert_eq!(toks[1], ("pizza".into(), TokenKind::Word));
    }

    #[test]
    fn numbers_with_separators() {
        let toks = kinds("3,000 tweets and 2.5 hours");
        assert_eq!(toks[0], ("3,000".into(), TokenKind::Number));
        assert_eq!(toks[3], ("2.5".into(), TokenKind::Number));
    }

    #[test]
    fn number_does_not_swallow_trailing_period() {
        let toks = kinds("I saw 42.");
        assert_eq!(toks[2], ("42".into(), TokenKind::Number));
        assert_eq!(toks[3], (".".into(), TokenKind::Punctuation));
    }

    #[test]
    fn contractions_and_hyphens_stay_whole() {
        let toks = kinds("don't be self-aware");
        assert_eq!(toks[0], ("don't".into(), TokenKind::Word));
        assert_eq!(toks[2], ("self-aware".into(), TokenKind::Word));
    }

    #[test]
    fn trailing_apostrophe_is_split() {
        let toks = kinds("dogs' toys");
        assert_eq!(toks[0], ("dogs".into(), TokenKind::Word));
        assert_eq!(toks[1], ("'".into(), TokenKind::Punctuation));
    }

    #[test]
    fn punctuation_is_individual() {
        let toks = kinds("wow!!!");
        assert_eq!(toks.len(), 4);
        assert_eq!(toks[1].1, TokenKind::Punctuation);
        assert_eq!(toks[3].1, TokenKind::Punctuation);
    }

    #[test]
    fn offsets_are_correct() {
        let text = "hi @you :) 42";
        for tok in tokenize(text) {
            assert_eq!(&text[tok.start..tok.end()], tok.text);
        }
    }

    #[test]
    fn unicode_words_do_not_panic() {
        let toks = kinds("café naïve 日本語 ok");
        assert_eq!(toks[0].1, TokenKind::Word);
        assert_eq!(toks[2].1, TokenKind::Word);
        assert_eq!(toks[3], ("ok".into(), TokenKind::Word));
    }

    #[test]
    fn emoji_are_emoticon_tokens() {
        let toks = tokenize("nice \u{1F600} work \u{2764}\u{FE0F} done");
        let kinds: Vec<TokenKind> = toks.iter().map(|t| t.kind).collect();
        assert_eq!(
            kinds,
            vec![
                TokenKind::Word,
                TokenKind::Emoticon,
                TokenKind::Word,
                TokenKind::Emoticon,
                TokenKind::Word,
            ]
        );
        // The variation selector is absorbed into the emoji token.
        assert_eq!(toks[3].text, "\u{2764}\u{FE0F}");
        // Offsets stay valid.
        let text = "nice \u{1F600} work \u{2764}\u{FE0F} done";
        for t in tokenize(text) {
            assert_eq!(&text[t.start..t.end()], t.text);
        }
    }

    #[test]
    fn shouting_detection() {
        let toks = tokenize("YOU are THE WORST ok A");
        let shouting: Vec<_> = toks.iter().filter(|t| t.is_shouting()).map(|t| t.text).collect();
        // Single-letter "A" is not shouting; lowercase words are not.
        assert_eq!(shouting, vec!["YOU", "THE", "WORST"]);
    }

    #[test]
    fn spans_mirror_tokens() {
        let texts = [
            "RT @victim: you're PATHETIC!! http://t.co/x #loser :(",
            "nice \u{1F600} work \u{2764}\u{FE0F} done",
            "3,000 tweets... WWW.SITE.COM",
            "",
        ];
        let mut spans = Vec::new();
        for text in texts {
            tokenize_into(text, &mut spans);
            let tokens = tokenize(text);
            assert_eq!(spans.len(), tokens.len(), "{text:?}");
            for (s, t) in spans.iter().zip(&tokens) {
                assert_eq!(s.text(text), t.text);
                assert_eq!(s.kind, t.kind);
                assert_eq!(s.start as usize, t.start);
                assert_eq!(s.end as usize, t.end());
                assert_eq!(s.is_shouting(text), t.is_shouting());
            }
        }
        // The buffer is cleared per call, so reuse never leaks old tokens.
        tokenize_into("one", &mut spans);
        assert_eq!(spans.len(), 1);
    }

    #[test]
    fn scan_tables_group_emoticons_longest_first() {
        let t = scan_tables();
        let all = lexicons::POSITIVE_EMOTICONS.len() + lexicons::NEGATIVE_EMOTICONS.len();
        assert_eq!(t.emoticons.len(), all);
        for (e, _) in &t.emoticons {
            assert!(e.is_ascii(), "{e}: the byte-class gate assumes ASCII emoticons");
            let (lo, hi) = t.by_first[e.as_bytes()[0] as usize];
            let group = &t.emoticons[lo as usize..hi as usize];
            assert!(group.iter().any(|(g, _)| g == e));
            assert!(group.windows(2).all(|w| w[0].0.len() >= w[1].0.len()));
        }
    }

    #[test]
    fn scan_records_shouting_valence_and_sentences() {
        let text = "WOW :) SO GOOD! t.co/x.y I\n\nA ok 😡";
        let mut scanner = Tokenizer::new(text);
        let mut scanned = Vec::new();
        while let Some(t) = scanner.scan_token() {
            scanned.push(t);
        }
        for t in &scanned {
            let token = Token { text: t.span.text(text), kind: t.span.kind, start: 0 };
            assert_eq!(t.shouting, token.kind == TokenKind::Word && token.is_shouting());
            let valence = if token.kind == TokenKind::Emoticon {
                lexicons::emoticon_valence(token.text)
            } else {
                0
            };
            assert_eq!(t.valence, valence, "{:?}", token.text);
        }
        let tokens = tokenize(text);
        assert_eq!(scanner.word_sentences(), crate::count_word_sentences(text, &tokens));
        // "WOW :) SO GOOD" ! " t" . "co/x" . "y I" \n\n "A ok 😡"
        assert_eq!(scanner.word_sentences(), 5);
    }

    #[test]
    fn realistic_tweet() {
        let toks = kinds("RT @victim: you're PATHETIC!! http://t.co/x #loser :(");
        let kinds_only: Vec<TokenKind> = toks.iter().map(|(_, k)| *k).collect();
        assert_eq!(
            kinds_only,
            vec![
                TokenKind::Word,        // RT
                TokenKind::Mention,     // @victim
                TokenKind::Punctuation, // :
                TokenKind::Word,        // you're
                TokenKind::Word,        // PATHETIC
                TokenKind::Punctuation, // !
                TokenKind::Punctuation, // !
                TokenKind::Url,
                TokenKind::Hashtag,
                TokenKind::Emoticon,
            ]
        );
    }
}

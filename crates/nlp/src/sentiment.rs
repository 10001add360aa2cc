//! SentiStrength-style dual sentiment scorer.
//!
//! The paper estimates "how positive or negative is the sentiment expressed
//! in the posted content (on a [-5, 5] scale)" with the SentiStrength tool
//! (Section IV-B). This module implements the documented SentiStrength
//! algorithm over the built-in valence lexicon:
//!
//! * each term carries a valence (positive `2..=5`, negative `-5..=-2`);
//! * *boosters* before a term strengthen it (`very bad` → −4),
//!   *diminishers* weaken it;
//! * *negators* within two tokens before a term invert it and reduce its
//!   magnitude by one (`not good` → −2);
//! * repeated-letter emphasis (`soooo`) and a following exclamation mark
//!   strengthen a term by one; an all-caps term likewise;
//! * emoticons contribute ±2;
//! * the text's **positive score** is the maximum positive term strength
//!   (floor `1`), the **negative score** is the minimum negative term
//!   strength (ceiling `-1`) — SentiStrength's dual output.
//!
//! The scorer reads [`Lexeme`]s, not text: the lexicon entry of every word
//! (valence, booster increment, diminisher and negator flags) comes from
//! the one probe [`TextScan`] made when it lowercased the word.

use crate::lexicons;
use crate::scan::{Lexeme, TextScan};
use crate::tokenizer::{Token, TokenKind, TokenSpan};

/// Dual sentiment score of a text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SentimentScore {
    /// Positive strength in `1..=5` (`1` = no positive sentiment).
    pub positive: i8,
    /// Negative strength in `-5..=-1` (`-1` = no negative sentiment).
    pub negative: i8,
}

impl SentimentScore {
    /// The neutral score.
    pub const NEUTRAL: SentimentScore = SentimentScore { positive: 1, negative: -1 };

    /// Single scalar in `[-5, 5]`: whichever pole is stronger, signed
    /// (ties → 0). Useful for compact reporting.
    pub fn polarity(&self) -> i8 {
        match self.positive.cmp(&(-self.negative)) {
            std::cmp::Ordering::Greater => self.positive,
            std::cmp::Ordering::Less => self.negative,
            std::cmp::Ordering::Equal => 0,
        }
    }
}

/// Collapse letter runs longer than two (`coooool` → `cool`, `coool` →
/// `cool`) into `out`, reporting whether any run of three or more was
/// present.
fn squeeze_repeats_into(word: &str, out: &mut String) -> bool {
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
    emphasized
}

/// Allocating form of [`squeeze_repeats_into`].
#[cfg(test)]
fn squeeze_repeats(word: &str) -> (String, bool) {
    let mut out = String::with_capacity(word.len());
    let emphasized = squeeze_repeats_into(word, &mut out);
    (out, emphasized)
}

/// True when `word` contains a run of three or more identical characters —
/// the emphasis flag of [`squeeze_repeats`] without building the squeezed
/// spelling.
fn has_triple_repeat(word: &str) -> bool {
    let mut prev: Option<char> = None;
    let mut run = 0usize;
    for c in word.chars() {
        if Some(c) == prev {
            run += 1;
            if run >= 3 {
                return true;
            }
        } else {
            prev = Some(c);
            run = 1;
        }
    }
    false
}

/// True when `word` contains two identical adjacent characters — the
/// precondition for either fallback spelling of [`fallback_valence`] to
/// differ from the raw one.
fn has_adjacent_repeat(word: &str) -> bool {
    let mut prev: Option<char> = None;
    for c in word.chars() {
        if Some(c) == prev {
            return true;
        }
        prev = Some(c);
    }
    false
}

/// Valence of a lowercased word that missed as spelled, trying the
/// double-letter squeezed form, then the fully deduplicated form, so
/// emphasized spellings ("looooove", "baaad") still hit the lexicon.
/// `squeeze` and `dedup` are reusable work buffers (overwritten).
fn fallback_valence(lower: &str, squeeze: &mut String, dedup: &mut String) -> Option<i8> {
    // Without a doubled character both fallback spellings equal `lower`,
    // which already missed.
    if !has_adjacent_repeat(lower) {
        return None;
    }
    let valence = |w: &str| lexicons::lex(w).valence;
    squeeze.clear();
    squeeze_repeats_into(lower, squeeze);
    if squeeze.as_str() != lower {
        let v = valence(squeeze);
        if v != 0 {
            return Some(v);
        }
    }
    dedup.clear();
    let mut prev = None;
    for c in lower.chars() {
        if Some(c) != prev {
            dedup.push(c);
        }
        prev = Some(c);
    }
    if dedup.as_str() != lower {
        let v = valence(dedup);
        if v != 0 {
            return Some(v);
        }
    }
    None
}

fn clamp_strength(v: i32) -> i8 {
    if v > 0 {
        v.clamp(2, 5) as i8
    } else if v < 0 {
        v.clamp(-5, -2) as i8
    } else {
        0
    }
}

/// Reusable buffers for the sentiment scorer: the per-token lexemes, their
/// lowercase arena, and the squeezed-spelling work strings.
pub type SentimentScratch = TextScan;

/// The scoring algorithm over scanned tokens. `arena` holds the lowercase
/// forms the lexemes point into; `squeeze`/`dedup` are work buffers.
pub(crate) fn score_core(
    lexemes: &[Lexeme],
    arena: &str,
    squeeze: &mut String,
    dedup: &mut String,
) -> SentimentScore {
    let lower_of = |lx: &Lexeme| &arena[lx.lower.0 as usize..lx.lower.1 as usize];
    let is_word = |lx: &Lexeme| lx.span.kind == TokenKind::Word;
    let mut max_pos: i8 = 1;
    let mut min_neg: i8 = -1;
    for (i, lx) in lexemes.iter().enumerate() {
        let base: i32 = match lx.span.kind {
            // ASCII emoticons and emoji both score ±2.
            TokenKind::Emoticon => lx.lex.valence as i32,
            TokenKind::Word if lx.lex.valence != 0 => lx.lex.valence as i32,
            TokenKind::Word => fallback_valence(lower_of(lx), squeeze, dedup).map_or(0, i32::from),
            _ => 0,
        };
        if base == 0 {
            continue;
        }
        let mut strength = base;
        let sign = if base > 0 { 1 } else { -1 };

        if is_word(lx) {
            // Booster / diminisher immediately before the term.
            if let Some(prev) = i.checked_sub(1).map(|j| &lexemes[j]).filter(|p| is_word(p)) {
                if prev.lex.booster != 0 {
                    strength += sign * prev.lex.booster as i32;
                } else if prev.lex.is_diminisher() {
                    strength -= sign;
                }
            }
            // Negator among the two preceding tokens inverts the term and
            // reduces its magnitude by one.
            let negated =
                lexemes[i.saturating_sub(2)..i].iter().any(|p| is_word(p) && p.lex.is_negator());
            if negated {
                strength = -sign * (strength.abs() - 1);
            }
            // Emphasis: repeated letters or all-caps spelling. Repeat runs
            // survive lowercasing, so the arena form is checked.
            if lx.shouting || has_triple_repeat(lower_of(lx)) {
                strength += if strength > 0 { 1 } else { -1 };
            }
        }
        // A following exclamation mark strengthens the term.
        if lexemes.get(i + 1).is_some_and(|next| next.bang) {
            strength += if strength > 0 { 1 } else { -1 };
        }

        let s = clamp_strength(strength);
        if s > 0 {
            max_pos = max_pos.max(s);
        } else if s < 0 {
            min_neg = min_neg.min(s);
        }
    }
    SentimentScore { positive: max_pos, negative: min_neg }
}

/// Score pre-tokenized text.
///
/// `tokens` must come from [`crate::tokenizer::tokenize`] on the *raw* text:
/// punctuation and emoticons carry signal here, so sentiment is computed
/// before the pipeline's cleaning step. Allocates a fresh
/// [`SentimentScratch`] per call — hot loops should hold one and call
/// [`score_tokens_with`] or [`score_spans`] instead.
pub fn score_tokens(tokens: &[Token<'_>]) -> SentimentScore {
    score_tokens_with(tokens, &mut SentimentScratch::new())
}

/// [`score_tokens`] with caller-provided scratch buffers.
pub fn score_tokens_with(tokens: &[Token<'_>], scratch: &mut SentimentScratch) -> SentimentScore {
    scratch.refill(tokens.len(), |i| {
        let t = &tokens[i];
        (t.text, TokenSpan { start: t.start as u32, end: t.end() as u32, kind: t.kind })
    });
    scratch.sentiment()
}

/// Score offset-based token spans against their source `text` with
/// caller-provided scratch buffers.
pub fn score_spans(
    text: &str,
    spans: &[TokenSpan],
    scratch: &mut SentimentScratch,
) -> SentimentScore {
    scratch.refill(spans.len(), |i| (spans[i].text(text), spans[i]));
    scratch.sentiment()
}

/// Tokenize and score `text` in one call.
pub fn score_text(text: &str) -> SentimentScore {
    let mut scan = TextScan::new();
    scan.scan(text);
    scan.sentiment()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neutral_text() {
        let s = score_text("the table has four legs");
        assert_eq!(s, SentimentScore::NEUTRAL);
        assert_eq!(s.polarity(), 0);
    }

    #[test]
    fn empty_text() {
        assert_eq!(score_text(""), SentimentScore::NEUTRAL);
    }

    #[test]
    fn simple_polarity() {
        let s = score_text("what a wonderful day");
        assert_eq!(s.positive, 4);
        assert_eq!(s.negative, -1);
        let s = score_text("this is terrible");
        assert_eq!(s.positive, 1);
        assert_eq!(s.negative, -4);
    }

    #[test]
    fn dual_output_keeps_both_poles() {
        let s = score_text("I love it but I hate the price");
        assert_eq!(s.positive, 4);
        assert_eq!(s.negative, -5);
    }

    #[test]
    fn booster_strengthens() {
        let plain = score_text("that was bad");
        let boosted = score_text("that was very bad");
        assert!(boosted.negative < plain.negative);
        assert_eq!(boosted.negative, -4);
    }

    #[test]
    fn booster_caps_at_scale_limit() {
        let s = score_text("absolutely disgusting");
        assert_eq!(s.negative, -5, "clamped to -5");
    }

    #[test]
    fn diminisher_weakens() {
        let plain = score_text("that was awful");
        let dim = score_text("that was slightly awful");
        assert!(dim.negative > plain.negative);
    }

    #[test]
    fn negation_inverts() {
        // "not good": good(+3) → inverted, magnitude-1 → -2.
        let s = score_text("this is not good");
        assert_eq!(s.positive, 1);
        assert_eq!(s.negative, -2);
        // "never hate": hate(-5) → +4.
        let s = score_text("I could never hate you");
        assert_eq!(s.positive, 4);
        assert_eq!(s.negative, -1);
    }

    #[test]
    fn negation_reaches_across_one_token() {
        // Negator two words before the term still applies.
        let s = score_text("not a good idea");
        assert_eq!(s.negative, -2);
    }

    #[test]
    fn exclamation_strengthens() {
        let plain = score_text("that was bad");
        let excl = score_text("that was bad !");
        assert!(excl.negative < plain.negative);
    }

    #[test]
    fn repeated_letters_hit_lexicon_and_emphasize() {
        let s = score_text("I looooove this");
        assert_eq!(s.positive, 5, "love(+4) + emphasis = 5");
    }

    #[test]
    fn all_caps_emphasizes() {
        let plain = score_text("you are pathetic");
        let caps = score_text("you are PATHETIC");
        assert!(caps.negative < plain.negative);
    }

    #[test]
    fn emoticons_score() {
        let s = score_text("meeting at noon :)");
        assert_eq!(s.positive, 2);
        let s = score_text("meeting at noon :(");
        assert_eq!(s.negative, -2);
    }

    #[test]
    fn emoji_score() {
        let s = score_text("great job \u{1F389}");
        assert_eq!(s.positive, 3, "word valence (great = +3) dominates the +2 emoji");
        let s = score_text("meeting moved \u{1F621}");
        assert_eq!(s.negative, -2, "angry emoji scores negative");
        let s = score_text("ok \u{2764}\u{FE0F}");
        assert_eq!(s.positive, 2, "heart with variation selector");
    }

    #[test]
    fn scores_stay_on_scale() {
        for text in [
            "ABSOLUTELY DISGUSTING!!! you VILE wretched SCUM",
            "incredibly absolutely magnificently wonderful amazing!!!",
            "not not not good bad terrible love hate",
        ] {
            let s = score_text(text);
            assert!((1..=5).contains(&s.positive), "{text}: {s:?}");
            assert!((-5..=-1).contains(&s.negative), "{text}: {s:?}");
        }
    }

    #[test]
    fn polarity_scalar() {
        assert_eq!(score_text("wonderful").polarity(), 4);
        assert_eq!(score_text("terrible").polarity(), -4);
        assert_eq!(score_text("ok fine whatever").polarity(), 0);
    }

    #[test]
    fn scratch_and_span_paths_match_allocating_path() {
        let mut scratch = SentimentScratch::new();
        let mut spans = Vec::new();
        for text in [
            "what a wonderful day",
            "this is not good !",
            "ABSOLUTELY DISGUSTING!!! you VILE wretched SCUM",
            "I looooove this :) but haaaate that :(",
            "great job \u{1F389} ok \u{2764}\u{FE0F}",
            "Καλά VERY bad day",
            "",
        ] {
            let tokens = crate::tokenizer::tokenize(text);
            crate::tokenizer::tokenize_into(text, &mut spans);
            let expected = score_tokens(&tokens);
            // The same scratch is reused across inputs on purpose: stale
            // state from the previous text must never leak into the next.
            assert_eq!(score_tokens_with(&tokens, &mut scratch), expected, "{text:?}");
            assert_eq!(score_spans(text, &spans, &mut scratch), expected, "{text:?}");
        }
    }

    #[test]
    fn squeeze_repeats_behaviour() {
        assert_eq!(squeeze_repeats("cool"), ("cool".into(), false));
        assert_eq!(squeeze_repeats("coool"), ("cool".into(), true));
        assert_eq!(squeeze_repeats("cooooool"), ("cool".into(), true));
        assert_eq!(squeeze_repeats(""), (String::new(), false));
    }
}

//! Rule/lexicon-based part-of-speech tagger.
//!
//! The paper's syntactic features are the relative frequencies of
//! *adjectives*, *adverbs*, and *verbs* in a tweet (Section IV-B). Those
//! counts do not require full sequence tagging: a greedy per-token tagger
//! backed by closed-class word lists, open-class lexicons, and suffix
//! heuristics yields stable counts with the same discriminative signal
//! (see the substitution table in `DESIGN.md`).
//!
//! Lookup order per word:
//! 1. closed classes (pronoun, determiner, preposition, conjunction,
//!    interjection),
//! 2. open-class lexicons (adverb before adjective before verb, so that
//!    `well`-like ambiguous words get their most frequent tag),
//! 3. suffix heuristics (`-ly` → adverb; `-ing`/`-ed`/`-ize`/`-ify` → verb;
//!    `-ous`/`-ful`/`-ive`/… → adjective),
//! 4. default: noun.
//!
//! Steps 1–2 are a single probe of the shared lexicon table
//! ([`crate::lexicons::lex_map`]), which keeps each word's first tag in
//! this order.

use crate::lexicons::{self, Lex};

/// Part-of-speech tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PosTag {
    /// Noun (also the fallback for unknown words).
    Noun,
    /// Verb, any inflection.
    Verb,
    /// Adjective.
    Adjective,
    /// Adverb.
    Adverb,
    /// Pronoun.
    Pronoun,
    /// Determiner.
    Determiner,
    /// Preposition.
    Preposition,
    /// Conjunction.
    Conjunction,
    /// Interjection.
    Interjection,
}

const ADJ_SUFFIXES: &[&str] =
    &["ous", "ful", "ive", "able", "ible", "al", "ic", "less", "ish", "ary", "est"];
const VERB_SUFFIXES: &[&str] = &["ing", "ed", "ize", "ise", "ify", "ate"];

/// Tag a single word (case-insensitive).
pub fn tag_word(word: &str) -> PosTag {
    // ASCII fast path: almost every tweet word lowercases without
    // allocating — either it is already lowercase, or it fits a stack
    // buffer. ASCII lowercasing agrees with `str::to_lowercase` on ASCII
    // input, so the tag is identical.
    if word.is_ascii() {
        if !word.bytes().any(|b| b.is_ascii_uppercase()) {
            return tag_lower(word);
        }
        let mut buf = [0u8; 64];
        if let Some(buf) = buf.get_mut(..word.len()) {
            buf.copy_from_slice(word.as_bytes());
            buf.make_ascii_lowercase();
            // ASCII stays UTF-8; fall through to the allocating path if not.
            if let Ok(lower) = std::str::from_utf8(buf) {
                return tag_lower(lower);
            }
        }
    }
    tag_lower(&word.to_lowercase())
}

/// Tag an already-lowercased word.
fn tag_lower(w: &str) -> PosTag {
    tag_entry(lexicons::lex(w), w)
}

/// Tag an already-lowercased word `w` whose lexicon entry is `entry` (the
/// per-token pass has it from its one probe): the listed tag if any, else
/// the suffix heuristics.
pub fn tag_entry(entry: Lex, w: &str) -> PosTag {
    if let Some(tag) = entry.pos {
        return tag;
    }
    // Suffix heuristics, longest-context first. Require a minimal stem so
    // short words like "red" or "king" don't get misparsed.
    if w.len() > 4 && w.ends_with("ly") {
        return PosTag::Adverb;
    }
    for suf in VERB_SUFFIXES {
        if w.len() > suf.len() + 2 && w.ends_with(suf) {
            return PosTag::Verb;
        }
    }
    for suf in ADJ_SUFFIXES {
        if w.len() > suf.len() + 2 && w.ends_with(suf) {
            return PosTag::Adjective;
        }
    }
    PosTag::Noun
}

/// Counts of the POS categories the feature extractor consumes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PosCounts {
    /// Number of adjective tokens (`cntAdjective`).
    pub adjectives: usize,
    /// Number of adverb tokens (`cntAdverbs`).
    pub adverbs: usize,
    /// Number of verb tokens (`cntVerbs`).
    pub verbs: usize,
    /// Total number of words tagged.
    pub total: usize,
}

/// Tag a sequence of words and tally the categories of interest.
pub fn count_pos<'a>(words: impl IntoIterator<Item = &'a str>) -> PosCounts {
    let mut counts = PosCounts::default();
    for w in words {
        counts.total += 1;
        match tag_word(w) {
            PosTag::Adjective => counts.adjectives += 1,
            PosTag::Adverb => counts.adverbs += 1,
            PosTag::Verb => counts.verbs += 1,
            _ => {}
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_classes() {
        assert_eq!(tag_word("they"), PosTag::Pronoun);
        assert_eq!(tag_word("The"), PosTag::Determiner);
        assert_eq!(tag_word("under"), PosTag::Preposition);
        assert_eq!(tag_word("because"), PosTag::Conjunction);
        assert_eq!(tag_word("wow"), PosTag::Interjection);
    }

    #[test]
    fn open_class_lexicons() {
        assert_eq!(tag_word("ugly"), PosTag::Adjective);
        assert_eq!(tag_word("quickly"), PosTag::Adverb);
        assert_eq!(tag_word("running"), PosTag::Verb);
        assert_eq!(tag_word("PATHETIC"), PosTag::Adjective, "case-insensitive");
    }

    #[test]
    fn suffix_heuristics() {
        assert_eq!(tag_word("gloriously"), PosTag::Adverb);
        assert_eq!(tag_word("tweeting"), PosTag::Verb);
        assert_eq!(tag_word("computerized"), PosTag::Verb);
        assert_eq!(tag_word("courageous"), PosTag::Adjective);
        assert_eq!(tag_word("meaningless"), PosTag::Adjective);
    }

    #[test]
    fn short_words_do_not_trigger_suffix_rules() {
        // "fly" ends in -ly, "king" in -ing, "red" in -ed: all too short.
        assert_eq!(tag_word("fly"), PosTag::Noun);
        assert_eq!(tag_word("king"), PosTag::Noun);
        assert_eq!(tag_word("red"), PosTag::Adjective, "lexicon hit, not suffix");
        assert_eq!(tag_word("bed"), PosTag::Noun);
    }

    #[test]
    fn unknown_defaults_to_noun() {
        assert_eq!(tag_word("covfefe"), PosTag::Noun);
        assert_eq!(tag_word("xyzzy"), PosTag::Noun);
    }

    #[test]
    fn count_pos_tallies() {
        let counts = count_pos(["the", "ugly", "dog", "ran", "quickly", "home"]);
        assert_eq!(counts.total, 6);
        assert_eq!(counts.adjectives, 1);
        assert_eq!(counts.adverbs, 1);
        assert_eq!(counts.verbs, 1);
    }

    #[test]
    fn count_pos_empty() {
        let counts = count_pos(std::iter::empty());
        assert_eq!(counts, PosCounts::default());
    }
}

//! Lexicon tables and fast lookup structures.
//!
//! The raw tables live in [`data`] (generated; see `DESIGN.md` for
//! provenance). The per-token hot path reads them through one table,
//! [`lex_map`]: every word any word-level table lists, keyed by its
//! lowercase spelling, with everything the tables say about it packed into
//! one [`Lex`] entry — so a word costs one hash probe, whatever the
//! sentiment scorer, the POS tagger and the preprocessing filter need to
//! know. The per-class sets and maps below remain for callers that ask
//! about one class at a time.

mod data;

pub use data::{
    ADJECTIVES, ADVERBS, BOOSTERS, CONJUNCTIONS, DETERMINERS, DIMINISHERS, INTERJECTIONS,
    NEGATIVE_EMOTICONS, NEGATORS, POSITIVE_EMOTICONS, PREPOSITIONS, PRONOUNS,
    SENTIMENT_VALENCES, STOPWORDS, SWEAR_WORDS, VERBS,
};

use crate::fxhash::{FxHashMap, FxHashSet};
use crate::pos::PosTag;
use std::sync::OnceLock;

/// Tweet-specific abbreviations removed during cleaning (compared
/// case-insensitively).
pub static TWEET_ABBREVIATIONS: &[&str] = &["rt", "mt", "ht", "cc", "dm", "prt", "via"];

/// Everything the lexicons say about one lowercase word: one [`lex_map`]
/// probe answers every per-word question of the hot path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lex {
    /// Sentiment valence on the SentiStrength scale; `0` when the word is
    /// not a sentiment term. Emoticon tokens carry their ±2 here too.
    pub valence: i8,
    /// Strength a booster adds to the following term; `0` when the word is
    /// not a booster.
    pub booster: i8,
    /// The word's tag from the closed- and open-class lists, first list
    /// wins in the tagger's lookup order; `None` when no list has it.
    pub pos: Option<PosTag>,
    flags: u8,
}

impl Lex {
    const DIMINISHER: u8 = 1;
    const NEGATOR: u8 = 1 << 1;
    const ABBREVIATION: u8 = 1 << 2;
    const EMOTICON_WORD: u8 = 1 << 3;

    /// The entry an emoticon token carries: its valence, nothing else.
    pub(crate) fn emoticon(valence: i8) -> Lex {
        Lex { valence, ..Lex::default() }
    }

    /// A diminisher (weakens the following sentiment term by one).
    pub fn is_diminisher(self) -> bool {
        self.flags & Self::DIMINISHER != 0
    }

    /// A negator (inverts a sentiment term up to two tokens later).
    pub fn is_negator(self) -> bool {
        self.flags & Self::NEGATOR != 0
    }

    /// The lowercase form of a tweet abbreviation ([`TWEET_ABBREVIATIONS`]).
    /// Abbreviations match ASCII case-insensitively only, so a raw spelling
    /// counts when it is ASCII.
    pub fn is_abbreviation(self) -> bool {
        self.flags & Self::ABBREVIATION != 0
    }

    /// The lowercase form of a word-shaped emoticon (`xd` for `xd`, `xD`,
    /// `XD`). Emoticons match case-sensitively, so a raw spelling counts
    /// only when [`is_emoticon_spelling`] confirms it.
    pub fn is_emoticon_word(self) -> bool {
        self.flags & Self::EMOTICON_WORD != 0
    }
}

/// The one per-word lexicon table: lowercase word → [`Lex`].
///
/// Built once from every word-level table in `data`, the abbreviations,
/// and the emoticons a word token can spell. POS tags are inserted in the
/// tagger's lookup order (pronoun, determiner, preposition, conjunction,
/// interjection, adverb, adjective, verb) with first-wins semantics, so a
/// word in two lists (e.g. "well") keeps its first tag.
pub fn lex_map() -> &'static FxHashMap<&'static str, Lex> {
    static MAP: OnceLock<FxHashMap<&'static str, Lex>> = OnceLock::new();
    MAP.get_or_init(|| {
        // Sized above the union (1,049 keys) so the build, which runs on
        // the first tweet, never rehashes.
        let listed = SENTIMENT_VALENCES.len() + ADJECTIVES.len() + VERBS.len() + ADVERBS.len();
        let mut map: FxHashMap<&'static str, Lex> =
            FxHashMap::with_capacity_and_hasher(listed + listed / 2, Default::default());
        for &(w, v) in SENTIMENT_VALENCES {
            map.entry(w).or_default().valence = v;
        }
        for &(w, inc) in BOOSTERS {
            map.entry(w).or_default().booster = inc;
        }
        let flagged: [(&'static [&'static str], u8); 3] = [
            (DIMINISHERS, Lex::DIMINISHER),
            (NEGATORS, Lex::NEGATOR),
            (TWEET_ABBREVIATIONS, Lex::ABBREVIATION),
        ];
        for (table, flag) in flagged {
            for &w in table {
                map.entry(w).or_default().flags |= flag;
            }
        }
        let classes: [(&'static [&'static str], PosTag); 8] = [
            (PRONOUNS, PosTag::Pronoun),
            (DETERMINERS, PosTag::Determiner),
            (PREPOSITIONS, PosTag::Preposition),
            (CONJUNCTIONS, PosTag::Conjunction),
            (INTERJECTIONS, PosTag::Interjection),
            (ADVERBS, PosTag::Adverb),
            (ADJECTIVES, PosTag::Adjective),
            (VERBS, PosTag::Verb),
        ];
        for (table, tag) in classes {
            for &w in table {
                map.entry(w).or_default().pos.get_or_insert(tag);
            }
        }
        // Only emoticons made of word characters can reach the filter as
        // word tokens (`xD5` is the word `xD` then the number `5`); they
        // are keyed by their lowercase form, the table's own spelling when
        // it lists one.
        let emoticons = || POSITIVE_EMOTICONS.iter().chain(NEGATIVE_EMOTICONS).copied();
        for e in emoticons() {
            if e.chars().all(|c| c.is_alphabetic() || matches!(c, '\'' | '’' | '-')) {
                let lower = e.to_lowercase();
                let key = emoticons()
                    .find(|k| *k == lower)
                    .unwrap_or_else(|| Box::leak(lower.into_boxed_str()));
                map.entry(key).or_default().flags |= Lex::EMOTICON_WORD;
            }
        }
        map
    })
}

/// The [`Lex`] entry of an already-lowercased word (all-default when no
/// table lists it).
pub fn lex(word: &str) -> Lex {
    lex_map().get(word).copied().unwrap_or_default()
}

/// True when `text` is exactly one of the ASCII emoticon spellings
/// (case-sensitive, like the tokenizer's emoticon match).
pub fn is_emoticon_spelling(text: &str) -> bool {
    POSITIVE_EMOTICONS.contains(&text) || NEGATIVE_EMOTICONS.contains(&text)
}

/// Valence of an emoticon token: `2` for a positive emoticon or emoji,
/// `-2` for a negative one, `0` otherwise. A trailing variation selector
/// (U+FE0F) after an emoji is ignored.
pub fn emoticon_valence(text: &str) -> i8 {
    let bare = text.trim_end_matches('\u{FE0F}');
    if POSITIVE_EMOTICONS.contains(&text) || POSITIVE_EMOJI.contains(&bare) {
        2
    } else if NEGATIVE_EMOTICONS.contains(&text) || NEGATIVE_EMOJI.contains(&bare) {
        -2
    } else {
        0
    }
}

fn set_of(words: &'static [&'static str]) -> FxHashSet<&'static str> {
    words.iter().copied().collect()
}

macro_rules! lazy_set {
    ($fn_name:ident, $table:ident, $doc:literal) => {
        #[doc = $doc]
        pub fn $fn_name() -> &'static FxHashSet<&'static str> {
            static SET: OnceLock<FxHashSet<&'static str>> = OnceLock::new();
            SET.get_or_init(|| set_of($table))
        }
    };
}

lazy_set!(swear_set, SWEAR_WORDS, "Profanity lexicon as a set (347 entries).");
lazy_set!(stopword_set, STOPWORDS, "Stopword lexicon as a set.");
lazy_set!(negator_set, NEGATORS, "Negation words as a set.");
lazy_set!(diminisher_set, DIMINISHERS, "Diminisher words as a set.");
lazy_set!(adjective_set, ADJECTIVES, "Adjective lexicon as a set.");
lazy_set!(adverb_set, ADVERBS, "Adverb lexicon as a set.");
lazy_set!(verb_set, VERBS, "Verb lexicon as a set.");
lazy_set!(pronoun_set, PRONOUNS, "Pronoun lexicon as a set.");
lazy_set!(determiner_set, DETERMINERS, "Determiner lexicon as a set.");
lazy_set!(preposition_set, PREPOSITIONS, "Preposition lexicon as a set.");
lazy_set!(conjunction_set, CONJUNCTIONS, "Conjunction lexicon as a set.");
lazy_set!(interjection_set, INTERJECTIONS, "Interjection lexicon as a set.");
lazy_set!(positive_emoticon_set, POSITIVE_EMOTICONS, "Positive emoticons as a set.");
lazy_set!(negative_emoticon_set, NEGATIVE_EMOTICONS, "Negative emoticons as a set.");

/// Sentiment valence lookup: term → strength on the SentiStrength scale
/// (positive `2..=5`, negative `-5..=-2`).
pub fn sentiment_map() -> &'static FxHashMap<&'static str, i8> {
    static MAP: OnceLock<FxHashMap<&'static str, i8>> = OnceLock::new();
    MAP.get_or_init(|| SENTIMENT_VALENCES.iter().copied().collect())
}

/// Booster strength lookup: booster word → increment it adds to a following
/// sentiment term.
pub fn booster_map() -> &'static FxHashMap<&'static str, i8> {
    static MAP: OnceLock<FxHashMap<&'static str, i8>> = OnceLock::new();
    MAP.get_or_init(|| BOOSTERS.iter().copied().collect())
}

/// Emoji scored as positive (+2), alongside the ASCII emoticons.
pub static POSITIVE_EMOJI: &[&str] = &[
    "\u{1F600}", "\u{1F601}", "\u{1F602}", "\u{1F603}", "\u{1F604}", "\u{1F60A}",
    "\u{1F60D}", "\u{1F60E}", "\u{1F618}", "\u{1F642}", "\u{1F970}", "\u{1F923}",
    "\u{2764}", "\u{1F495}", "\u{1F44D}", "\u{1F389}", "\u{2728}", "\u{1F973}",
];

/// Emoji scored as negative (-2), alongside the ASCII emoticons.
pub static NEGATIVE_EMOJI: &[&str] = &[
    "\u{1F620}", "\u{1F621}", "\u{1F92C}", "\u{1F61E}", "\u{1F622}", "\u{1F62D}",
    "\u{1F480}", "\u{1F44E}", "\u{1F612}", "\u{1F644}", "\u{1F624}", "\u{1F4A2}",
    "\u{1F63E}", "\u{1F494}", "\u{1F92F}",
];

lazy_set!(positive_emoji_set, POSITIVE_EMOJI, "Positive emoji as a set.");
lazy_set!(negative_emoji_set, NEGATIVE_EMOJI, "Negative emoji as a set.");

/// True when `c` falls in the Unicode blocks the tokenizer treats as emoji.
pub fn is_emoji_char(c: char) -> bool {
    matches!(u32::from(c),
        0x1F300..=0x1FAFF   // Misc symbols & pictographs .. symbols ext-A
        | 0x2600..=0x27BF   // Misc symbols, dingbats (incl. the heart)
        | 0x1F004 | 0x1F0CF
    )
}

/// True when `word` (already lowercased) appears in the profanity lexicon.
pub fn is_swear(word: &str) -> bool {
    swear_set().contains(word)
}

/// True when `word` (already lowercased) is a stopword.
pub fn is_stopword(word: &str) -> bool {
    stopword_set().contains(word)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swear_lexicon_has_exactly_347_entries() {
        // The paper's adaptive BoW is seeded with a 347-word list (Fig. 10).
        assert_eq!(SWEAR_WORDS.len(), 347);
        assert_eq!(swear_set().len(), 347, "no duplicate entries");
    }

    #[test]
    fn lexicons_are_lowercase_and_trimmed() {
        for table in [SWEAR_WORDS, STOPWORDS, NEGATORS, ADJECTIVES, ADVERBS, VERBS] {
            for w in table {
                assert_eq!(w.trim(), *w, "{w:?} has surrounding whitespace");
                assert_eq!(
                    w.to_lowercase(),
                    *w,
                    "{w:?} is not lowercase"
                );
                assert!(!w.is_empty());
            }
        }
    }

    #[test]
    fn sentiment_valences_are_on_scale() {
        for (w, v) in SENTIMENT_VALENCES {
            assert!(
                (2..=5).contains(v) || (-5..=-2).contains(v),
                "{w} has off-scale valence {v}"
            );
        }
        assert_eq!(sentiment_map().len(), SENTIMENT_VALENCES.len(), "no duplicates");
    }

    #[test]
    fn booster_increments_are_small_and_positive() {
        for (w, inc) in BOOSTERS {
            assert!((1..=2).contains(inc), "{w} has increment {inc}");
        }
    }

    #[test]
    fn membership_helpers() {
        assert!(is_swear("asshole"));
        assert!(!is_swear("kitten"));
        assert!(is_stopword("the"));
        assert!(is_stopword("rt"));
        assert!(!is_stopword("aggression"));
    }

    #[test]
    fn emoticon_sets_are_disjoint() {
        for e in POSITIVE_EMOTICONS {
            assert!(!negative_emoticon_set().contains(e), "{e} in both sets");
        }
        for e in POSITIVE_EMOJI {
            assert!(!negative_emoji_set().contains(e), "{e} in both emoji sets");
        }
        // Every emoji entry is recognized by the char classifier.
        for e in POSITIVE_EMOJI.iter().chain(NEGATIVE_EMOJI) {
            let c = e.chars().next().unwrap();
            assert!(is_emoji_char(c), "{e} not classified as emoji");
        }
        assert!(!is_emoji_char('a'));
        assert!(!is_emoji_char('!'));
    }

    #[test]
    fn lex_map_agrees_with_every_class_table() {
        let map = lex_map();
        for (w, v) in SENTIMENT_VALENCES {
            assert_eq!(lex(w).valence, *v, "{w}");
        }
        for (w, inc) in BOOSTERS {
            assert_eq!(lex(w).booster, *inc, "{w}");
        }
        for w in DIMINISHERS {
            assert!(lex(w).is_diminisher(), "{w}");
        }
        for w in NEGATORS {
            assert!(lex(w).is_negator(), "{w}");
        }
        for w in TWEET_ABBREVIATIONS {
            assert!(lex(w).is_abbreviation(), "{w}");
        }
        assert!(lex("xd").is_emoticon_word());
        // First-wins POS, as the tagger's sequential set checks read them.
        let classes = [
            (pronoun_set(), PosTag::Pronoun),
            (determiner_set(), PosTag::Determiner),
            (preposition_set(), PosTag::Preposition),
            (conjunction_set(), PosTag::Conjunction),
            (interjection_set(), PosTag::Interjection),
            (adverb_set(), PosTag::Adverb),
            (adjective_set(), PosTag::Adjective),
            (verb_set(), PosTag::Verb),
        ];
        for (&w, entry) in map {
            let first = classes.iter().find(|(set, _)| set.contains(w)).map(|&(_, t)| t);
            assert_eq!(entry.pos, first, "{w}");
            assert_eq!(entry.valence != 0, sentiment_map().contains_key(w), "{w}");
            assert_eq!(entry.booster != 0, booster_map().contains_key(w), "{w}");
            assert_eq!(entry.is_diminisher(), diminisher_set().contains(w), "{w}");
            assert_eq!(entry.is_negator(), negator_set().contains(w), "{w}");
            assert_eq!(entry.is_abbreviation(), TWEET_ABBREVIATIONS.contains(&w), "{w}");
            assert_ne!(*entry, Lex::default(), "{w} carries nothing");
        }
        assert_eq!(map.len(), 1049, "the union of the word-level tables");
        assert_eq!(lex("zorgon"), Lex::default());
    }

    #[test]
    fn emoticon_valence_matches_the_sets() {
        for e in POSITIVE_EMOTICONS.iter().chain(POSITIVE_EMOJI) {
            assert_eq!(emoticon_valence(e), 2, "{e}");
        }
        for e in NEGATIVE_EMOTICONS.iter().chain(NEGATIVE_EMOJI) {
            assert_eq!(emoticon_valence(e), -2, "{e}");
        }
        assert_eq!(emoticon_valence("\u{2764}\u{FE0F}"), 2);
        assert_eq!(emoticon_valence("\u{1F600}"), 2);
        assert_eq!(emoticon_valence("\u{2600}"), 0);
        assert!(is_emoticon_spelling("xD") && !is_emoticon_spelling("Xd"));
    }

    #[test]
    fn known_words_present() {
        assert!(sentiment_map().contains_key("hate"));
        assert_eq!(sentiment_map()["hate"], -5);
        assert!(sentiment_map()["love"] > 0);
        assert!(adjective_set().contains("ugly"));
        assert!(adverb_set().contains("quickly"));
        assert!(verb_set().contains("running"));
        assert!(negator_set().contains("not"));
    }
}

//! Feature extraction (Section IV-B of the paper).
//!
//! Produces the 17-dimensional feature vector used throughout the
//! evaluation: the 16 features ranked in Figure 5 (profile, basic text,
//! syntactic, stylistic, sentiment, swear-word, and network features) plus
//! the adaptive bag-of-words match count.
//!
//! Counting features (`numHashtags`, `numUpperCases`, `numUrls`) and
//! sentiment are always computed on the raw text — they measure content the
//! cleaning step removes. The word-level features (POS counts, stylistic
//! statistics, swear/BoW counts) are computed on the *preprocessed* word
//! sequence when preprocessing is enabled, and on all raw word tokens when
//! it is disabled (the `p=OFF` ablation of Figure 6).
//!
//! Extraction comes in two forms. [`FeatureExtractor::extract`] allocates
//! its result per call — convenient for tests and one-off use.
//! [`FeatureExtractor::extract_into`] writes into a caller-owned
//! [`ExtractScratch`], whose buffers are reused across calls: after
//! warm-up a stream consumer extracts tweets without touching the
//! allocator.
//!
//! The text is read once. [`TextScan::scan`] tokenizes the tweet in a
//! single pass (collecting the shouting flags and the sentence count on
//! the way), lowercases every word once into one arena, and probes the one
//! lexicon table once per word. One pass over the resulting lexemes then
//! feeds everything else from those entries: the counting features, the
//! preprocessing filter, the POS tally and the word-length mean; the
//! sentiment scorer reads the same lexemes. The only other hash probe per
//! word is the adaptive BoW's interner lookup, whose vocabulary changes as
//! the stream runs.

use crate::adaptive_bow::AdaptiveBow;
use crate::preprocess;
use redhanded_nlp::lexicons;
use redhanded_nlp::tokenizer::TokenKind;
use redhanded_nlp::{tag_entry, PosTag, TextScan};
use redhanded_types::{ClassScheme, FeatureSet, Instance, LabeledTweet, Tweet};

/// Canonical feature names, in vector order.
pub static FEATURE_NAMES: &[&str] = &[
    "accountAge",
    "cntPosts",
    "cntLists",
    "cntFollowers",
    "cntFriends",
    "numHashtags",
    "numUpperCases",
    "numUrls",
    "cntAdjective",
    "cntAdverbs",
    "cntVerbs",
    "wordsPerSentence",
    "meanWordLength",
    "sentimentScorePos",
    "sentimentScoreNeg",
    "cntSwearWords",
    "bowScore",
];

/// Number of features in the canonical vector.
pub const NUM_FEATURES: usize = 17;

/// Configuration for the extractor.
#[derive(Debug, Clone)]
pub struct ExtractorConfig {
    /// Apply the cleaning step before word-level features (`p=ON`).
    pub preprocess: bool,
}

impl Default for ExtractorConfig {
    fn default() -> Self {
        ExtractorConfig { preprocess: true }
    }
}

/// The result of extracting one tweet: the feature vector plus the
/// lowercased word sequence (needed downstream by the adaptive BoW's
/// `observe` step, avoiding a second tokenization pass).
#[derive(Debug, Clone)]
pub struct Extraction {
    /// The 17-dimensional feature vector, in [`FEATURE_NAMES`] order.
    pub features: Vec<f64>,
    /// Lowercased words that survived (or bypassed) preprocessing.
    pub words: Vec<String>,
}

/// Reusable working memory for [`FeatureExtractor::extract_into`].
///
/// Owns every buffer the per-tweet hot path needs: the text scan (token
/// lexemes, the lowercase arena, the sentiment work buffers), the ranges of
/// the surviving words in that arena, and the output feature vector. All
/// buffers are cleared — never shrunk — between tweets, so after the first
/// few tweets a steady-state consumer performs no allocations at all.
#[derive(Debug, Default)]
pub struct ExtractScratch {
    /// The current tweet, scanned.
    scan: TextScan,
    /// Arena ranges of the lowercased words that survived preprocessing.
    words: Vec<(u32, u32)>,
    /// The 17-dimensional output vector of the last extraction.
    features: Vec<f64>,
}

impl ExtractScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// The feature vector written by the last `extract_into` call, in
    /// [`FEATURE_NAMES`] order.
    pub fn features(&self) -> &[f64] {
        &self.features
    }

    /// The lowercased words of the last `extract_into` call, in tweet
    /// order. The iterator borrows the scratch, so the BoW-observe step
    /// consumes it without materializing a `Vec<String>`.
    pub fn words(&self) -> impl Iterator<Item = &str> + Clone {
        self.words.iter().map(|&r| self.scan.lower(r))
    }

    /// Number of words of the last `extract_into` call.
    pub fn num_words(&self) -> usize {
        self.words.len()
    }
}

/// Stateless tweet-to-vector feature extractor.
///
/// The adaptive BoW is passed in per call rather than owned, because its
/// mutable state is updated by the *training* step (it changes only on
/// labeled tweets) while extraction runs on every tweet.
#[derive(Debug, Clone, Default)]
pub struct FeatureExtractor {
    config: ExtractorConfig,
}

impl FeatureExtractor {
    /// Create an extractor.
    pub fn new(config: ExtractorConfig) -> Self {
        FeatureExtractor { config }
    }

    /// The canonical feature metadata.
    pub fn feature_set() -> FeatureSet {
        FeatureSet::new(FEATURE_NAMES.iter().copied())
    }

    /// Whether preprocessing is enabled.
    pub fn preprocessing_enabled(&self) -> bool {
        self.config.preprocess
    }

    /// Extract one tweet into `scratch`, reusing its buffers.
    ///
    /// Results are read back via [`ExtractScratch::features`] and
    /// [`ExtractScratch::words`]; they stay valid until the next call. The
    /// produced values are bit-identical to [`FeatureExtractor::extract`].
    pub fn extract_into(&self, tweet: &Tweet, bow: &AdaptiveBow, scratch: &mut ExtractScratch) {
        let text = tweet.text.as_str();
        let ExtractScratch { scan, words, features } = scratch;
        scan.scan(text);

        // Sentiment on the raw token stream (punctuation and emoticons carry
        // signal; see the sentiment module docs).
        let sentiment = scan.sentiment();

        // Counting features on the raw token stream; word-level features
        // on the cleaned (or raw) word sequence. With preprocessing
        // disabled, everything that cleaning would have removed — URLs,
        // mentions, hashtags, numbers, abbreviations like RT — stays in the
        // word stream and pollutes the word-derived features, exactly the
        // instability Figure 6 measures.
        let (mut num_hashtags, mut num_urls, mut num_upper) = (0usize, 0usize, 0usize);
        let (mut adjectives, mut adverbs, mut verbs, mut chars) = (0usize, 0usize, 0usize, 0usize);
        words.clear();
        for i in 0..scan.lexemes().len() {
            let lx = scan.lexemes()[i];
            let kind = lx.span.kind;
            match kind {
                TokenKind::Hashtag => num_hashtags += 1,
                TokenKind::Url => num_urls += 1,
                TokenKind::Word if lx.shouting => num_upper += 1,
                _ => {}
            }
            let (lower, lex) = match kind {
                TokenKind::Punctuation | TokenKind::Emoticon => continue,
                TokenKind::Word => {
                    if self.config.preprocess && !preprocess::keep_word(lx.span.text(text), lx.lex) {
                        continue;
                    }
                    (lx.lower, lx.lex)
                }
                // URLs, mentions, hashtags and numbers are words only when
                // preprocessing is off; the scan did not lowercase them.
                _ if self.config.preprocess => continue,
                _ => {
                    let r = scan.push_lowercase(lx.span.text(text));
                    (r, lexicons::lex(scan.lower(r)))
                }
            };
            let w = scan.lower(lower);
            match tag_entry(lex, w) {
                PosTag::Adjective => adjectives += 1,
                PosTag::Adverb => adverbs += 1,
                PosTag::Verb => verbs += 1,
                _ => {}
            }
            chars += if w.is_ascii() { w.len() } else { w.chars().count() };
            words.push(lower);
        }

        // Only word-bearing segments count as sentences — trailing
        // hashtag/URL fragments would otherwise skew `wordsPerSentence`
        // class-dependently (see redhanded_nlp::count_word_sentences).
        let num_sentences = scan.word_sentences().max(1);
        let num_words = words.len();
        let words_per_sentence = num_words as f64 / num_sentences as f64;
        let mean_word_length =
            if num_words == 0 { 0.0 } else { chars as f64 / num_words as f64 };
        // One interner probe per word covers both `cntSwearWords` (seed-id
        // prefix) and `bowScore` (membership) — see `swear_and_bow_counts`.
        let (swears, bow_score) =
            bow.swear_and_bow_counts(words.iter().map(|&r| scan.lower(r)));

        let user = &tweet.user;
        features.clear();
        features.extend([
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
            sentiment.positive as f64,
            sentiment.negative as f64,
            swears as f64,
            bow_score as f64,
        ]);
        debug_assert_eq!(features.len(), NUM_FEATURES);
    }

    /// Extract the feature vector and word sequence for one tweet,
    /// allocating a fresh result (thin wrapper over `extract_into`).
    pub fn extract(&self, tweet: &Tweet, bow: &AdaptiveBow) -> Extraction {
        let mut scratch = ExtractScratch::new();
        self.extract_into(tweet, bow, &mut scratch);
        Extraction {
            features: std::mem::take(&mut scratch.features),
            words: scratch.words().map(str::to_string).collect(),
        }
    }

    /// [`FeatureExtractor::instance`] through a reusable scratch. The word
    /// sequence of the tweet remains readable from `scratch` afterwards.
    pub fn instance_into(
        &self,
        tweet: &Tweet,
        bow: &AdaptiveBow,
        day: u32,
        scratch: &mut ExtractScratch,
    ) -> Instance {
        self.extract_into(tweet, bow, scratch);
        Instance::unlabeled(scratch.features().to_vec())
            .with_day(day)
            .with_ids(tweet.id, tweet.user.id)
    }

    /// Extract an unlabeled [`Instance`] from a tweet.
    pub fn instance(&self, tweet: &Tweet, bow: &AdaptiveBow, day: u32) -> Instance {
        self.instance_into(tweet, bow, day, &mut ExtractScratch::new())
    }

    /// [`FeatureExtractor::labeled_instance`] through a reusable scratch.
    /// On `Some`, the tweet's word sequence remains readable from `scratch`
    /// (for the BoW-observe step) without allocating a `Vec<String>`.
    pub fn labeled_instance_into(
        &self,
        tweet: &LabeledTweet,
        scheme: ClassScheme,
        bow: &AdaptiveBow,
        day: u32,
        scratch: &mut ExtractScratch,
    ) -> Option<Instance> {
        let class = scheme.index_of(tweet.label)?;
        self.extract_into(&tweet.tweet, bow, scratch);
        Some(
            Instance::labeled(scratch.features().to_vec(), class)
                .with_day(day)
                .with_ids(tweet.tweet.id, tweet.tweet.user.id),
        )
    }

    /// Extract a labeled [`Instance`] from a labeled tweet under `scheme`.
    ///
    /// Returns `None` when the label does not belong to the scheme (e.g.
    /// spam, which the paper filters out before classification).
    pub fn labeled_instance(
        &self,
        tweet: &LabeledTweet,
        scheme: ClassScheme,
        bow: &AdaptiveBow,
        day: u32,
    ) -> Option<(Instance, Vec<String>)> {
        let mut scratch = ExtractScratch::new();
        let inst = self.labeled_instance_into(tweet, scheme, bow, day, &mut scratch)?;
        Some((inst, scratch.words().map(str::to_string).collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redhanded_types::{ClassLabel, TwitterUser};

    fn tweet(text: &str) -> Tweet {
        Tweet {
            id: 1,
            text: text.to_string(),
            timestamp_ms: 0,
            is_retweet: false,
            is_reply: false,
            user: TwitterUser {
                id: 9,
                screen_name: "u".into(),
                account_age_days: 1500.0,
                statuses_count: 1234,
                listed_count: 5,
                followers_count: 300,
                friends_count: 150,
            },
        }
    }

    fn idx(name: &str) -> usize {
        FEATURE_NAMES.iter().position(|n| *n == name).unwrap()
    }

    #[test]
    fn feature_names_match_vector_len() {
        assert_eq!(FEATURE_NAMES.len(), NUM_FEATURES);
        assert_eq!(FeatureExtractor::feature_set().len(), NUM_FEATURES);
        let ext = FeatureExtractor::default()
            .extract(&tweet("hello world"), &AdaptiveBow::with_defaults());
        assert_eq!(ext.features.len(), NUM_FEATURES);
    }

    #[test]
    fn profile_and_network_features() {
        let ext = FeatureExtractor::default()
            .extract(&tweet("hi"), &AdaptiveBow::with_defaults());
        assert_eq!(ext.features[idx("accountAge")], 1500.0);
        assert_eq!(ext.features[idx("cntPosts")], 1234.0);
        assert_eq!(ext.features[idx("cntLists")], 5.0);
        assert_eq!(ext.features[idx("cntFollowers")], 300.0);
        assert_eq!(ext.features[idx("cntFriends")], 150.0);
    }

    #[test]
    fn basic_text_features() {
        let ext = FeatureExtractor::default().extract(
            &tweet("CHECK this OUT http://t.co/a https://x.co/b #one #two #three"),
            &AdaptiveBow::with_defaults(),
        );
        assert_eq!(ext.features[idx("numHashtags")], 3.0);
        assert_eq!(ext.features[idx("numUrls")], 2.0);
        assert_eq!(ext.features[idx("numUpperCases")], 2.0);
    }

    #[test]
    fn swear_and_bow_features() {
        let ext = FeatureExtractor::default().extract(
            &tweet("you are an asshole and a bastard"),
            &AdaptiveBow::with_defaults(),
        );
        assert_eq!(ext.features[idx("cntSwearWords")], 2.0);
        assert_eq!(ext.features[idx("bowScore")], 2.0);
    }

    #[test]
    fn bow_score_tracks_adaptive_membership() {
        let mut bow = AdaptiveBow::with_defaults();
        let extractor = FeatureExtractor::default();
        let t = tweet("that zorgon ruined everything");
        assert_eq!(extractor.extract(&t, &bow).features[idx("bowScore")], 0.0);
        // Promote "zorgon" by brute force via merge of a crafted bow.
        for _ in 0..2000 {
            bow.observe(["zorgon"], true);
            bow.observe(["weather"], false);
        }
        assert!(bow.contains("zorgon"));
        assert_eq!(extractor.extract(&t, &bow).features[idx("bowScore")], 1.0);
        // cntSwearWords is independent of the adaptive membership.
        assert_eq!(extractor.extract(&t, &bow).features[idx("cntSwearWords")], 0.0);
    }

    #[test]
    fn sentiment_features_are_on_scale() {
        let ext = FeatureExtractor::default().extract(
            &tweet("I absolutely hate you, you are disgusting!!"),
            &AdaptiveBow::with_defaults(),
        );
        let pos = ext.features[idx("sentimentScorePos")];
        let neg = ext.features[idx("sentimentScoreNeg")];
        assert!((1.0..=5.0).contains(&pos));
        assert!((-5.0..=-1.0).contains(&neg));
        assert_eq!(neg, -5.0);
    }

    #[test]
    fn preprocessing_toggle_changes_word_features() {
        let bow = AdaptiveBow::with_defaults();
        let t = tweet("RT @a: loving the running dogs #sostylish http://x.co");
        let on = FeatureExtractor::new(ExtractorConfig { preprocess: true }).extract(&t, &bow);
        let off = FeatureExtractor::new(ExtractorConfig { preprocess: false }).extract(&t, &bow);
        // "RT" survives with preprocessing off, so word-derived counts differ.
        assert!(off.words.contains(&"rt".to_string()));
        assert!(!on.words.contains(&"rt".to_string()));
        // Raw-text counting features are identical either way.
        assert_eq!(on.features[idx("numHashtags")], off.features[idx("numHashtags")]);
        assert_eq!(on.features[idx("numUrls")], off.features[idx("numUrls")]);
    }

    #[test]
    fn scratch_reuse_matches_fresh_extraction() {
        let bow = AdaptiveBow::with_defaults();
        let texts = [
            "you are an ASSHOLE!! http://t.co/x #angry :(",
            "RT @a: lovely day, isn't it?",
            "",
            "Τι ΚΑΝΕΙΣ; 😀 numbers 42 here",
        ];
        for ex in [
            FeatureExtractor::new(ExtractorConfig { preprocess: true }),
            FeatureExtractor::new(ExtractorConfig { preprocess: false }),
        ] {
            let mut scratch = ExtractScratch::new();
            for text in texts {
                let t = tweet(text);
                ex.extract_into(&t, &bow, &mut scratch);
                let fresh = ex.extract(&t, &bow);
                assert_eq!(scratch.features(), fresh.features.as_slice(), "text {text:?}");
                let words: Vec<&str> = scratch.words().collect();
                assert_eq!(words, fresh.words, "text {text:?}");
                assert_eq!(scratch.num_words(), fresh.words.len());
            }
        }
    }

    #[test]
    fn labeled_instance_maps_label() {
        let lt = LabeledTweet { tweet: tweet("you asshole"), label: ClassLabel::Abusive };
        let bow = AdaptiveBow::with_defaults();
        let ex = FeatureExtractor::default();
        let (inst, words) =
            ex.labeled_instance(&lt, ClassScheme::ThreeClass, &bow, 2).unwrap();
        assert_eq!(inst.label, Some(1));
        assert_eq!(inst.day, 2);
        assert_eq!(inst.tweet_id, 1);
        assert_eq!(inst.user_id, 9);
        assert_eq!(words, vec!["you", "asshole"]);
        let (inst2, _) = ex.labeled_instance(&lt, ClassScheme::TwoClass, &bow, 0).unwrap();
        assert_eq!(inst2.label, Some(1));
    }

    #[test]
    fn spam_is_filtered_out() {
        let lt = LabeledTweet { tweet: tweet("buy now"), label: ClassLabel::Spam };
        let bow = AdaptiveBow::with_defaults();
        let ex = FeatureExtractor::default();
        assert!(ex.labeled_instance(&lt, ClassScheme::ThreeClass, &bow, 0).is_none());
        assert!(ex.labeled_instance(&lt, ClassScheme::TwoClass, &bow, 0).is_none());
        let mut scratch = ExtractScratch::new();
        assert!(ex
            .labeled_instance_into(&lt, ClassScheme::TwoClass, &bow, 0, &mut scratch)
            .is_none());
    }

    #[test]
    fn empty_tweet_text() {
        let ext =
            FeatureExtractor::default().extract(&tweet(""), &AdaptiveBow::with_defaults());
        assert_eq!(ext.features.len(), NUM_FEATURES);
        assert_eq!(ext.features[idx("cntSwearWords")], 0.0);
        assert_eq!(ext.features[idx("wordsPerSentence")], 0.0);
        assert!(ext.words.is_empty());
    }
}

//! Text features: n-gram tokenization, TF-IDF, and cosine similarity.
//!
//! SOMDedup converts metric IDs (subroutine name + metric name) into
//! numerical features using TF-IDF with 2- and 3-gram lengths (§5.5.1);
//! PairwiseDedup and root-cause analysis compute cosine similarity between
//! textual feature vectors (§5.5.2, §5.6).
//!
//! A [`SparseVector`] keeps its terms in ascending order with their norm,
//! so a cosine is one sorted merge and every sum runs in the same order on
//! every run: the similarity of two documents is a pure function of their
//! text. TF-IDF terms are interned as their rank in the fitted vocabulary,
//! and a fitted document's vector is built once, at fit time.

// fbd-lint::allow(hash-order): only `TfIdf::fit`'s gram interner, which is looked up, never iterated
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A sparse term-weight vector: distinct terms in ascending order, their
/// weights, and the Euclidean norm. TF-IDF vectors key terms by vocabulary
/// rank (`u32`); word vectors key them by the word itself.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseVector<K = u32> {
    terms: Vec<K>,
    weights: Vec<f64>,
    norm: f64,
}

impl<K: Ord> SparseVector<K> {
    /// Builds a vector from `(term, weight)` entries in any order; the
    /// weights of a repeated term are summed in the order given.
    fn from_entries(mut entries: Vec<(K, f64)>) -> Self {
        // Stable: a repeated term's weights stay in their given order.
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let mut terms: Vec<K> = Vec::with_capacity(entries.len());
        let mut weights: Vec<f64> = Vec::with_capacity(entries.len());
        for (term, weight) in entries {
            match (terms.last(), weights.last_mut()) {
                (Some(last), Some(sum)) if *last == term => *sum += weight,
                _ => {
                    terms.push(term);
                    weights.push(weight);
                }
            }
        }
        Self::from_sorted(terms, weights)
    }

    /// Wraps distinct, ascending terms and their weights, computing the
    /// norm in term order.
    fn from_sorted(terms: Vec<K>, weights: Vec<f64>) -> Self {
        let norm = weights.iter().map(|w| w * w).sum::<f64>().sqrt();
        SparseVector {
            terms,
            weights,
            norm,
        }
    }

    /// Cosine similarity, in `[0, 1]` for non-negative weights: a sorted
    /// merge over the shared terms, summed in ascending term order. Returns
    /// 0 when either vector is empty or zero.
    pub fn cosine(&self, other: &Self) -> f64 {
        if !(self.norm > 0.0 && other.norm > 0.0) {
            return 0.0;
        }
        let (mut i, mut j) = (0, 0);
        let mut dot = 0.0;
        while i < self.terms.len() && j < other.terms.len() {
            match self.terms[i].cmp(&other.terms[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    dot += self.weights[i] * other.weights[j];
                    i += 1;
                    j += 1;
                }
            }
        }
        (dot / (self.norm * other.norm)).clamp(-1.0, 1.0)
    }
}

/// Splits text into lowercase word tokens (alphanumeric runs).
pub fn word_tokens(text: &str) -> Vec<String> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|s| !s.is_empty())
        .map(|s| s.to_lowercase())
        .collect()
}

/// Character n-grams of `text` for each length in `lengths`, as slices of
/// `text`: every window of `n` chars for the first length, then the next.
/// Callers lowercase first; the paper's metric-ID encoding uses 2- and
/// 3-grams.
///
/// # Examples
///
/// ```
/// let grams: Vec<&str> = fbd_stats::text::char_ngrams("foo", &[2]).collect();
/// assert_eq!(grams, vec!["fo", "oo"]);
/// ```
pub fn char_ngrams<'a>(text: &'a str, lengths: &'a [usize]) -> impl Iterator<Item = &'a str> + 'a {
    let boundaries = move || text.char_indices().map(|(at, _)| at).chain([text.len()]);
    lengths.iter().filter(|&&n| n > 0).flat_map(move |&n| {
        boundaries()
            .zip(boundaries().skip(n))
            .map(move |(s, e)| &text[s..e])
    })
}

/// Builds a word-level feature vector from weighted text fields, e.g.
/// `[(title, 2.0), (summary, 1.0)]` — used by root-cause text similarity
/// (§5.6) where titles matter more than bodies. A word's weight is the sum
/// of its fields' weights over its occurrences.
pub fn weighted_word_vector(fields: &[(&str, f64)]) -> SparseVector<String> {
    let mut entries = Vec::new();
    for &(text, weight) in fields {
        entries.extend(word_tokens(text).into_iter().map(|token| (token, weight)));
    }
    SparseVector::from_entries(entries)
}

/// A TF-IDF model fitted over a corpus of documents.
///
/// Terms are interned as their rank in the sorted vocabulary, so ascending
/// ids are lexicographic order. Each fitted document's vector is built once
/// by [`TfIdf::fit`]; [`TfIdf::document`] and [`TfIdf::document_signature`]
/// are lookups.
#[derive(Debug, Clone, Default)]
pub struct TfIdf {
    /// The vocabulary's terms, sorted and concatenated.
    vocabulary: String,
    /// Byte offset of each term in `vocabulary`, plus the end offset.
    term_starts: Vec<usize>,
    /// Smoothed inverse document frequency by term id.
    idf: Vec<f64>,
    /// The fitted documents' TF-IDF vectors, in corpus order.
    documents: Vec<SparseVector>,
    /// Number of documents the model was fitted on.
    n_documents: usize,
    /// n-gram lengths used for tokenization.
    ngram_lengths: Vec<usize>,
}

/// FNV-1a offset basis and prime, for [`TfIdf::document_signature`] and
/// the gram interner.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// Number of strongest terms a document signature hashes.
const SIGNATURE_TERMS: usize = 8;

/// FNV-1a as a [`Hasher`]: grams are a few bytes and not adversarial.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(FNV_OFFSET)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.0 = (self.0 ^ *byte as u64).wrapping_mul(FNV_PRIME);
        }
    }
}

impl TfIdf {
    /// Fits IDF weights over `documents` using character n-grams of the
    /// given lengths (the paper uses `[2, 3]` for metric IDs), and builds
    /// every document's TF-IDF vector.
    pub fn fit(documents: &[&str], ngram_lengths: &[usize]) -> Self {
        let lowered: Vec<String> = documents.iter().map(|d| d.to_lowercase()).collect();
        // Intern each gram in first-seen order, then re-rank the ids in
        // lexicographic order, so an id is the same whatever order the
        // corpus came in.
        // fbd-lint::allow(hash-order): looked up only; ids are re-ranked by gram text below
        let mut interned: HashMap<&str, u32, BuildHasherDefault<Fnv>> = HashMap::default();
        let mut grams: Vec<&str> = Vec::new();
        let mut doc_terms: Vec<Vec<u32>> = lowered
            .iter()
            .map(|text| {
                char_ngrams(text, ngram_lengths)
                    .map(|gram| {
                        *interned.entry(gram).or_insert_with(|| {
                            grams.push(gram);
                            (grams.len() - 1) as u32
                        })
                    })
                    .collect()
            })
            .collect();
        let mut by_text: Vec<u32> = (0..grams.len() as u32).collect();
        by_text.sort_unstable_by_key(|&id| grams[id as usize]);
        let mut rank = vec![0u32; grams.len()];
        let mut vocabulary = String::new();
        let mut term_starts = Vec::with_capacity(grams.len() + 1);
        term_starts.push(0);
        for (r, &id) in by_text.iter().enumerate() {
            rank[id as usize] = r as u32;
            vocabulary.push_str(grams[id as usize]);
            term_starts.push(vocabulary.len());
        }
        // Each document's term ids ascending; a term's document frequency
        // counts the documents holding it.
        let mut df = vec![0usize; grams.len()];
        for ids in &mut doc_terms {
            for id in ids.iter_mut() {
                *id = rank[*id as usize];
            }
            ids.sort_unstable();
            for run in ids.chunk_by(|a, b| a == b) {
                df[run[0] as usize] += 1;
            }
        }
        let n = documents.len();
        // Smoothed IDF keeps weights positive for ubiquitous terms.
        let idf = df
            .iter()
            .map(|&df| ((1.0 + n as f64) / (1.0 + df as f64)).ln() + 1.0)
            .collect();
        let mut model = TfIdf {
            vocabulary,
            term_starts,
            idf,
            documents: Vec::new(),
            n_documents: n,
            ngram_lengths: ngram_lengths.to_vec(),
        };
        model.documents = doc_terms.iter().map(|ids| model.weigh(ids)).collect();
        model
    }

    /// Number of documents used to fit the model.
    pub fn n_documents(&self) -> usize {
        self.n_documents
    }

    /// The TF-IDF vector of fitted document `doc` (its index in the corpus
    /// passed to [`TfIdf::fit`]), or `None` past the corpus.
    pub fn document(&self, doc: usize) -> Option<&SparseVector> {
        self.documents.get(doc)
    }

    /// TF-IDF cosine similarity of two documents under this model, fitted
    /// or not. Terms outside the vocabulary receive the maximum IDF (they
    /// are maximally distinctive) and match between the two documents.
    pub fn similarity(&self, a: &str, b: &str) -> f64 {
        let (a, b) = (a.to_lowercase(), b.to_lowercase());
        let mut unknown: Vec<&str> = char_ngrams(&a, &self.ngram_lengths)
            .chain(char_ngrams(&b, &self.ngram_lengths))
            .filter(|gram| self.term_id(gram).is_none())
            .collect();
        unknown.sort_unstable();
        unknown.dedup();
        self.vectorize(&a, &unknown)
            .cosine(&self.vectorize(&b, &unknown))
    }

    /// Projects fitted document `doc` to a single integer hash of its
    /// strongest terms, the scalable encoding the paper uses to avoid
    /// pairwise comparisons in SOMDedup ("we convert metric IDs into
    /// integers using TF-IDF"). `None` past the corpus.
    pub fn document_signature(&self, doc: usize) -> Option<u64> {
        let v = self.documents.get(doc)?;
        // Heaviest first; equal weights in ascending term (= lexicographic)
        // order. Only the top terms are sorted.
        let heavier = |&x: &usize, &y: &usize| {
            v.weights[y]
                .total_cmp(&v.weights[x])
                .then_with(|| v.terms[x].cmp(&v.terms[y]))
        };
        let mut order: Vec<usize> = (0..v.terms.len()).collect();
        if order.len() > SIGNATURE_TERMS {
            order.select_nth_unstable_by(SIGNATURE_TERMS, heavier);
            order.truncate(SIGNATURE_TERMS);
        }
        order.sort_unstable_by(heavier);
        // FNV-1a over the top terms gives a stable, locality-free signature.
        let mut hash = Fnv::default();
        for &at in &order {
            hash.write(self.term(v.terms[at]).as_bytes());
        }
        Some(hash.finish())
    }

    /// The text of term `id`.
    fn term(&self, id: u32) -> &str {
        let id = id as usize;
        match (self.term_starts.get(id), self.term_starts.get(id + 1)) {
            (Some(&start), Some(&end)) => &self.vocabulary[start..end],
            _ => "",
        }
    }

    /// The id of `gram` in the vocabulary, by binary search.
    fn term_id(&self, gram: &str) -> Option<u32> {
        let (mut lo, mut hi) = (0, self.idf.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.term(mid as u32).cmp(gram) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(mid as u32),
            }
        }
        None
    }

    /// TF-IDF vector of a lowercased document. A gram outside the
    /// vocabulary must be in `unknown` (sorted, distinct); it gets the id
    /// past the vocabulary at its rank there.
    fn vectorize(&self, lowered: &str, unknown: &[&str]) -> SparseVector {
        let known = self.idf.len();
        let mut ids: Vec<u32> = char_ngrams(lowered, &self.ngram_lengths)
            .map(|gram| {
                self.term_id(gram)
                    .unwrap_or_else(|| (known + unknown.partition_point(|u| *u < gram)) as u32)
            })
            .collect();
        ids.sort_unstable();
        self.weigh(&ids)
    }

    /// TF-IDF weights of a document given its ascending term ids, one per
    /// gram occurrence: `(count / grams) · idf`. Ids past the vocabulary
    /// get the maximum IDF.
    fn weigh(&self, ids: &[u32]) -> SparseVector {
        let unknown_idf = ((1.0 + self.n_documents as f64) / 1.0).ln() + 1.0;
        let total = ids.len() as f64;
        let mut terms = Vec::with_capacity(ids.len());
        let mut weights = Vec::with_capacity(ids.len());
        for run in ids.chunk_by(|a, b| a == b) {
            let term = run[0];
            let idf = self.idf.get(term as usize).copied().unwrap_or(unknown_idf);
            terms.push(term);
            weights.push(run.len() as f64 / total * idf);
        }
        SparseVector::from_sorted(terms, weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The HashMap-keyed TF-IDF transform this module replaced, kept as
    /// the oracle for its weights.
    fn oracle_transform(
        corpus: &[&str],
        lengths: &[usize],
        document: &str,
    ) -> HashMap<String, f64> {
        let grams = |text: &str| -> Vec<String> {
            let chars: Vec<char> = text.to_lowercase().chars().collect();
            let mut grams = Vec::new();
            for &n in lengths {
                if n == 0 || chars.len() < n {
                    continue;
                }
                for window in chars.windows(n) {
                    grams.push(window.iter().collect());
                }
            }
            grams
        };
        let mut df: HashMap<String, usize> = HashMap::new();
        for doc in corpus {
            let mut seen = grams(doc);
            seen.sort();
            seen.dedup();
            for gram in seen {
                *df.entry(gram).or_insert(0) += 1;
            }
        }
        let n = corpus.len() as f64;
        let default_idf = ((1.0 + n) / 1.0).ln() + 1.0;
        let mut tf: HashMap<String, f64> = HashMap::new();
        for gram in grams(document) {
            *tf.entry(gram).or_insert(0.0) += 1.0;
        }
        let total: f64 = tf.values().sum();
        tf.into_iter()
            .map(|(term, count)| {
                let idf = df
                    .get(&term)
                    .map_or(default_idf, |&d| ((1.0 + n) / (1.0 + d as f64)).ln() + 1.0);
                (term, count / total * idf)
            })
            .collect()
    }

    /// The weights of `v` by term text.
    fn by_text(model: &TfIdf, v: &SparseVector, unknown: &[&str]) -> HashMap<String, f64> {
        v.terms
            .iter()
            .zip(&v.weights)
            .map(|(&id, &w)| {
                let known = model.idf.len();
                let text = if (id as usize) < known {
                    model.term(id)
                } else {
                    unknown[id as usize - known]
                };
                (text.to_string(), w)
            })
            .collect()
    }

    fn oracle_cosine(a: &HashMap<String, f64>, b: &HashMap<String, f64>) -> f64 {
        let dot: f64 = a
            .iter()
            .filter_map(|(k, va)| b.get(k).map(|vb| va * vb))
            .sum();
        let na = a.values().map(|v| v * v).sum::<f64>().sqrt();
        let nb = b.values().map(|v| v * v).sum::<f64>().sqrt();
        if na > 0.0 && nb > 0.0 {
            (dot / (na * nb)).clamp(-1.0, 1.0)
        } else {
            0.0
        }
    }

    const METRIC_IDS: [&str; 6] = [
        "ServiceA::handleRequest.cpu",
        "ServiceA::handleRequest.latency",
        "ServiceB::processQueue.cpu",
        "Database::query.throughput",
        "ServiceA::handleRequest.cpu",
        "Straße::grüßen.gcpu",
    ];

    #[test]
    fn word_tokens_splits_punctuation() {
        let t = word_tokens("Fix foo::bar, loosen-constraints (v2)");
        assert_eq!(t, vec!["fix", "foo", "bar", "loosen", "constraints", "v2"]);
    }

    #[test]
    fn ngrams_of_short_string() {
        assert_eq!(char_ngrams("a", &[2, 3]).count(), 0);
        assert_eq!(char_ngrams("ab", &[2, 3]).collect::<Vec<_>>(), vec!["ab"]);
        assert_eq!(
            char_ngrams("äbc", &[0, 2, 3]).collect::<Vec<_>>(),
            vec!["äb", "bc", "äbc"]
        );
    }

    #[test]
    fn cosine_identical_is_one() {
        let v = weighted_word_vector(&[("alpha beta gamma", 1.0)]);
        assert!((v.cosine(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_disjoint_is_zero() {
        let a = weighted_word_vector(&[("alpha beta", 1.0)]);
        let b = weighted_word_vector(&[("gamma delta", 1.0)]);
        assert_eq!(a.cosine(&b).to_bits(), 0.0_f64.to_bits());
    }

    #[test]
    fn tfidf_similar_names_score_high() {
        let corpus = &METRIC_IDS[..4];
        let model = TfIdf::fit(corpus, &[2, 3]);
        let same_subroutine = model.similarity(corpus[0], corpus[1]);
        let different = model.similarity(corpus[0], corpus[3]);
        assert!(same_subroutine > different + 0.2);
        assert!(same_subroutine > 0.5);
        let (d0, d1) = (model.document(0).unwrap(), model.document(1).unwrap());
        assert_eq!(d0.cosine(d1).to_bits(), same_subroutine.to_bits());
    }

    #[test]
    fn tfidf_downweights_ubiquitous_terms() {
        // "cpu" appears in every doc; its grams should matter less than the
        // distinctive subroutine names.
        let corpus = vec!["aaa.cpu", "bbb.cpu", "ccc.cpu", "ddd.cpu"];
        let model = TfIdf::fit(&corpus, &[3]);
        let shared_suffix = model.similarity("aaa.cpu", "bbb.cpu");
        assert!(shared_suffix < 0.8, "similarity = {shared_suffix}");
    }

    #[test]
    fn integer_signature_stable_and_distinct() {
        let corpus = vec!["foo.cpu", "bar.cpu", "baz.mem", "foo.cpu"];
        let model = TfIdf::fit(&corpus, &[2, 3]);
        let signature = |doc| model.document_signature(doc).unwrap();
        assert_eq!(signature(0), signature(3));
        assert_ne!(signature(0), signature(2));
        assert_eq!(model.document_signature(4), None);
    }

    #[test]
    fn weighted_fields_bias_similarity() {
        let a = weighted_word_vector(&[("loosening constraints for foo", 2.0)]);
        let b = weighted_word_vector(&[("regression in subroutine foo", 1.0)]);
        let c = weighted_word_vector(&[("unrelated database migration", 1.0)]);
        assert!(a.cosine(&b) > a.cosine(&c));
    }

    #[test]
    fn empty_vectors_similarity_zero() {
        let empty = SparseVector::<String>::default();
        let v = weighted_word_vector(&[("x", 1.0)]);
        assert_eq!(empty.cosine(&v).to_bits(), 0.0_f64.to_bits());
        assert_eq!(v.cosine(&empty).to_bits(), 0.0_f64.to_bits());
    }

    #[test]
    fn repeated_words_sum_their_field_weights_in_order() {
        let v = weighted_word_vector(&[("foo bar", 2.0), ("Foo", 0.1), ("foo", 0.2)]);
        assert_eq!(v.terms, ["bar".to_string(), "foo".to_string()]);
        assert_eq!(v.weights[1].to_bits(), (2.0 + 0.1 + 0.2f64).to_bits());
    }

    #[test]
    fn interned_weights_are_bit_equal_to_the_oracle() {
        let lengths = [2, 3];
        let corpus = &METRIC_IDS[..];
        let model = TfIdf::fit(corpus, &lengths);
        assert_eq!(model.n_documents(), corpus.len());
        // Fitted documents: the vectors built at fit time.
        for (doc, text) in corpus.iter().enumerate() {
            let got = by_text(&model, model.document(doc).unwrap(), &[]);
            let want = oracle_transform(corpus, &lengths, text);
            assert_eq!(got.len(), want.len(), "{text}");
            for (term, w) in &want {
                assert_eq!(got[term].to_bits(), w.to_bits(), "{text}: {term}");
            }
        }
        // Unfitted documents, with grams the vocabulary has never seen.
        for text in [
            "ServiceC::handleRequest.cpu",
            "zzqq::xx.gcpu",
            "Database::query.cpu",
        ] {
            let lowered = text.to_lowercase();
            let mut unknown: Vec<&str> = char_ngrams(&lowered, &lengths)
                .filter(|g| model.term_id(g).is_none())
                .collect();
            unknown.sort_unstable();
            unknown.dedup();
            let got = by_text(&model, &model.vectorize(&lowered, &unknown), &unknown);
            let want = oracle_transform(corpus, &lengths, text);
            assert_eq!(got.len(), want.len(), "{text}");
            for (term, w) in &want {
                assert_eq!(got[term].to_bits(), w.to_bits(), "{text}: {term}");
            }
        }
        // Cosine agrees with the oracle's up to summation order.
        let docs = corpus
            .iter()
            .chain(&["ServiceC::handleRequest.cpu", "zzqq::xx.gcpu"]);
        for a in docs.clone() {
            for b in docs.clone() {
                let want = oracle_cosine(
                    &oracle_transform(corpus, &lengths, a),
                    &oracle_transform(corpus, &lengths, b),
                );
                let got = model.similarity(a, b);
                assert!((got - want).abs() < 1e-12, "{a} vs {b}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn similarity_is_one_bit_pattern_across_fits_and_builds() {
        // Hash-ordered sums gave a different last bit from fit to fit; the
        // ascending-term merge gives one answer.
        let corpus = &METRIC_IDS[..];
        let mut tfidf_bits = BTreeSet::new();
        let mut word_bits = BTreeSet::new();
        for _ in 0..1_000 {
            let model = TfIdf::fit(corpus, &[2, 3]);
            tfidf_bits.insert(model.similarity(corpus[0], corpus[1]).to_bits());
            tfidf_bits.insert(
                model
                    .document(0)
                    .unwrap()
                    .cosine(model.document(1).unwrap())
                    .to_bits(),
            );
            let a = weighted_word_vector(&[
                ("Add expensive check to hot_path handleRequest", 2.0),
                ("service a request handling cpu latency path check", 1.0),
            ]);
            let b = weighted_word_vector(&[
                ("servicea handlerequest cpu hot path check", 1.0),
                ("hot_path expensive request latency", 2.0),
            ]);
            word_bits.insert(a.cosine(&b).to_bits());
        }
        assert_eq!(tfidf_bits.len(), 1, "{tfidf_bits:?}");
        assert_eq!(word_bits.len(), 1, "{word_bits:?}");
    }
}

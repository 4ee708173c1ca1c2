//! Domain-specific similarity operators (Section 3.2).
//!
//! Matching dependencies are defined w.r.t. a fixed set `Θ` of similarity
//! relations.  Every operator `≈ ∈ Θ` is reflexive, symmetric and subsumes
//! equality; the distinguished *matching operator* `⇋` is additionally
//! transitive and decomposes pairwise over value lists.  Apart from `⇋`
//! (which is to be inferred, not computed), the operators compare values of
//! unreliable sources with metrics such as edit distance, q-grams and Jaro —
//! the metrics surveyed in \[32\] and named in Section 3.3(a).
//!
//! The [`SimilarityOp`] enum implements the concrete metrics with a
//! threshold, the subsumption (containment) relation between operators used
//! by RCK minimality, and the "strength" ordering used by the MD inference
//! closure (equality is the strongest relation: knowing `x = y` entitles us
//! to any `x ≈ y`).

use dq_relation::{levenshtein, levenshtein_within_scratch, Value};
use std::collections::BTreeSet;
use std::fmt;

/// A similarity operator of `Θ` (excluding the matching operator `⇋`, which
/// is represented separately by [`crate::md::MatchOp`]).
#[derive(Clone, Debug, PartialEq, PartialOrd)]
pub enum SimilarityOp {
    /// Plain equality `=` (always a member of `Θ`).
    Equality,
    /// Levenshtein edit distance at most the threshold (on display strings).
    EditDistance {
        /// Maximum allowed edit distance.
        max_distance: usize,
    },
    /// Normalized edit-distance similarity at least the threshold in `[0,1]`.
    NormalizedEdit {
        /// Minimum normalized similarity (1.0 = identical).
        min_similarity: f64,
    },
    /// Jaro similarity at least the threshold in `[0,1]`.
    Jaro {
        /// Minimum Jaro similarity.
        min_similarity: f64,
    },
    /// Jaro–Winkler similarity at least the threshold in `[0,1]`.
    JaroWinkler {
        /// Minimum Jaro–Winkler similarity.
        min_similarity: f64,
    },
    /// q-gram (Jaccard over character q-grams) similarity at least the
    /// threshold in `[0,1]`.
    QGram {
        /// The q-gram length.
        q: usize,
        /// Minimum Jaccard similarity of the q-gram sets.
        min_similarity: f64,
    },
}

impl SimilarityOp {
    /// Edit-distance operator `≈_d` with the given threshold.
    pub fn edit(max_distance: usize) -> Self {
        SimilarityOp::EditDistance { max_distance }
    }

    /// Jaro operator with the given threshold.
    pub fn jaro(min_similarity: f64) -> Self {
        SimilarityOp::Jaro { min_similarity }
    }

    /// Jaro–Winkler operator with the given threshold.
    pub fn jaro_winkler(min_similarity: f64) -> Self {
        SimilarityOp::JaroWinkler { min_similarity }
    }

    /// q-gram operator with the given parameters.
    pub fn qgram(q: usize, min_similarity: f64) -> Self {
        SimilarityOp::QGram { q, min_similarity }
    }

    /// Does the operator relate the two values?
    ///
    /// All operators subsume equality (identical values are always related);
    /// the string metrics compare the display forms of non-string values.
    pub fn related(&self, a: &Value, b: &Value) -> bool {
        if a == b {
            return true;
        }
        let (sa, sb) = (a.to_string(), b.to_string());
        match self {
            SimilarityOp::Equality => false,
            SimilarityOp::EditDistance { max_distance } => levenshtein(&sa, &sb) <= *max_distance,
            SimilarityOp::NormalizedEdit { min_similarity } => {
                normalized_edit_similarity(&sa, &sb) >= *min_similarity
            }
            SimilarityOp::Jaro { min_similarity } => jaro(&sa, &sb) >= *min_similarity,
            SimilarityOp::JaroWinkler { min_similarity } => {
                jaro_winkler(&sa, &sb) >= *min_similarity
            }
            SimilarityOp::QGram { q, min_similarity } => {
                qgram_similarity(&sa, &sb, *q) >= *min_similarity
            }
        }
    }

    /// Containment `self ⊆ other`: every pair related by `self` is related by
    /// `other`.  Equality is contained in every operator; within a family a
    /// looser threshold contains a stricter one.  The relation is partial —
    /// operators of different families are incomparable (conservatively
    /// reported as not contained).
    pub fn contained_in(&self, other: &SimilarityOp) -> bool {
        use SimilarityOp::*;
        match (self, other) {
            (Equality, _) => true,
            (EditDistance { max_distance: a }, EditDistance { max_distance: b }) => a <= b,
            (NormalizedEdit { min_similarity: a }, NormalizedEdit { min_similarity: b }) => a >= b,
            (Jaro { min_similarity: a }, Jaro { min_similarity: b }) => a >= b,
            (JaroWinkler { min_similarity: a }, JaroWinkler { min_similarity: b }) => a >= b,
            (
                QGram {
                    q: qa,
                    min_similarity: a,
                },
                QGram {
                    q: qb,
                    min_similarity: b,
                },
            ) => qa == qb && a >= b,
            _ => false,
        }
    }
}

impl fmt::Display for SimilarityOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimilarityOp::Equality => write!(f, "="),
            SimilarityOp::EditDistance { max_distance } => write!(f, "≈ed({max_distance})"),
            SimilarityOp::NormalizedEdit { min_similarity } => write!(f, "≈ned({min_similarity})"),
            SimilarityOp::Jaro { min_similarity } => write!(f, "≈jaro({min_similarity})"),
            SimilarityOp::JaroWinkler { min_similarity } => write!(f, "≈jw({min_similarity})"),
            SimilarityOp::QGram { q, min_similarity } => write!(f, "≈{q}gram({min_similarity})"),
        }
    }
}

/// Normalized edit similarity: `1 - levenshtein / max(len)` in `[0, 1]`.
pub fn normalized_edit_similarity(a: &str, b: &str) -> f64 {
    let max_len = a.chars().count().max(b.chars().count());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / max_len as f64
}

/// The Jaro similarity of two strings, in `[0, 1]`.
///
/// Delegates to a thread-local [`SimilarityKernel`] so repeated calls reuse
/// the match/transposition scratch buffers instead of allocating per call.
pub fn jaro(a: &str, b: &str) -> f64 {
    thread_local! {
        static KERNEL: std::cell::RefCell<SimilarityKernel> =
            std::cell::RefCell::new(SimilarityKernel::new());
    }
    KERNEL.with(|k| k.borrow_mut().jaro(a, b))
}

/// A reusable scratch workspace for the string metrics.
///
/// The naive metric functions split both strings into fresh `Vec<char>`s,
/// allocate a `vec![false]` matched mask and two match-character vectors
/// (Jaro), or two DP rows (Levenshtein) on *every* call.  The kernel hoists
/// all of that into one long-lived workspace: a matcher evaluating millions
/// of distinct value pairs touches the allocator only when a buffer needs
/// to grow.  Every method is bit-for-bit equivalent to its allocating
/// counterpart — same algorithm, same arithmetic order.
#[derive(Debug, Default)]
pub struct SimilarityKernel {
    a_chars: Vec<char>,
    b_chars: Vec<char>,
    b_matched: Vec<bool>,
    a_match_chars: Vec<char>,
    b_match_chars: Vec<char>,
    lev_prev: Vec<usize>,
    lev_cur: Vec<usize>,
}

impl SimilarityKernel {
    /// An empty workspace; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        SimilarityKernel::default()
    }

    fn split(&mut self, a: &str, b: &str) {
        self.a_chars.clear();
        self.a_chars.extend(a.chars());
        self.b_chars.clear();
        self.b_chars.extend(b.chars());
    }

    /// [`jaro`] with reused scratch.
    pub fn jaro(&mut self, a: &str, b: &str) -> f64 {
        self.split(a, b);
        let (a, b) = (&self.a_chars[..], &self.b_chars[..]);
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let window = (a.len().max(b.len()) / 2).saturating_sub(1);
        self.b_matched.clear();
        self.b_matched.resize(b.len(), false);
        self.a_match_chars.clear();
        let mut matches = 0usize;
        for (i, ca) in a.iter().enumerate() {
            let lo = i.saturating_sub(window);
            let hi = (i + window + 1).min(b.len());
            for (j, cb) in b.iter().enumerate().take(hi).skip(lo) {
                if !self.b_matched[j] && *cb == *ca {
                    self.b_matched[j] = true;
                    matches += 1;
                    self.a_match_chars.push(*ca);
                    break;
                }
            }
        }
        if matches == 0 {
            return 0.0;
        }
        // Matched characters of `b` in position order (the mask is scanned
        // left to right, so no sort is needed).
        self.b_match_chars.clear();
        self.b_match_chars.extend(
            b.iter()
                .enumerate()
                .filter(|(j, _)| self.b_matched[*j])
                .map(|(_, c)| *c),
        );
        let transpositions = self
            .a_match_chars
            .iter()
            .zip(&self.b_match_chars)
            .filter(|(ca, cb)| ca != cb)
            .count()
            / 2;
        let m = matches as f64;
        (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
    }

    /// [`jaro_winkler`] with reused scratch.
    pub fn jaro_winkler(&mut self, a: &str, b: &str) -> f64 {
        let j = self.jaro(a, b);
        let prefix = a
            .chars()
            .zip(b.chars())
            .take(4)
            .take_while(|(x, y)| x == y)
            .count();
        j + prefix as f64 * 0.1 * (1.0 - j)
    }

    /// Threshold-bounded Levenshtein with reused DP rows: `Some(d)` iff the
    /// edit distance `d` is at most `k` (see
    /// [`dq_relation::levenshtein_within`]).
    pub fn edit_within(&mut self, a: &str, b: &str, k: usize) -> Option<usize> {
        self.split(a, b);
        levenshtein_within_scratch(
            &self.a_chars,
            &self.b_chars,
            k,
            &mut self.lev_prev,
            &mut self.lev_cur,
        )
    }

    /// Evaluates a similarity operator on two *display strings*, assuming
    /// the caller already ruled out value equality (the `a == b` fast path
    /// of [`SimilarityOp::related`] — which compares [`Value`]s, not display
    /// strings, so it cannot be reproduced from the strings alone).
    ///
    /// Exactly equivalent to the metric arm of [`SimilarityOp::related`]:
    /// the edit family goes through the banded kernel with a threshold
    /// chosen so the accept set is unchanged, Jaro/Jaro–Winkler reuse the
    /// scratch buffers, and `Equality` answers `false` by the caller's
    /// contract.
    pub fn related_display(&mut self, op: &SimilarityOp, sa: &str, sb: &str) -> bool {
        match op {
            // Value equality was already handled by the caller; two display
            // strings being equal does NOT make distinct values equal.
            SimilarityOp::Equality => false,
            SimilarityOp::EditDistance { max_distance } => {
                self.edit_within(sa, sb, *max_distance).is_some()
            }
            SimilarityOp::NormalizedEdit { min_similarity } => {
                // `1 - d/max_len >= t` is downward-closed in `d` (division
                // and subtraction are monotone in IEEE arithmetic), so the
                // largest admissible distance can be found by binary search
                // on the exact float predicate, then checked with the
                // banded kernel.  Accept set identical to
                // `normalized_edit_similarity(sa, sb) >= t`.
                let max_len = sa.chars().count().max(sb.chars().count());
                if max_len == 0 {
                    return 1.0 >= *min_similarity;
                }
                let pred = |d: usize| 1.0 - d as f64 / max_len as f64 >= *min_similarity;
                if !pred(0) {
                    return false;
                }
                let (mut lo, mut hi) = (0usize, max_len);
                while lo < hi {
                    let mid = lo + (hi - lo).div_ceil(2);
                    if pred(mid) {
                        lo = mid;
                    } else {
                        hi = mid - 1;
                    }
                }
                self.edit_within(sa, sb, lo).is_some()
            }
            SimilarityOp::Jaro { min_similarity } => self.jaro(sa, sb) >= *min_similarity,
            SimilarityOp::JaroWinkler { min_similarity } => {
                self.jaro_winkler(sa, sb) >= *min_similarity
            }
            SimilarityOp::QGram { q, min_similarity } => {
                qgram_similarity(sa, sb, *q) >= *min_similarity
            }
        }
    }
}

/// The Jaro–Winkler similarity (Jaro with a bonus for common prefixes).
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let j = jaro(a, b);
    let prefix = a
        .chars()
        .zip(b.chars())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count();
    j + prefix as f64 * 0.1 * (1.0 - j)
}

/// The q-gram set of a string: all length-`q` character windows, or the
/// whole string when it is shorter than `q`.  Shared by
/// [`qgram_similarity`] and the q-gram inverted index in [`crate::block`],
/// so blocking and verification agree on the gram definition by
/// construction.
pub(crate) fn qgrams(s: &str, q: usize) -> BTreeSet<String> {
    let chars: Vec<char> = s.chars().collect();
    if chars.len() < q {
        return [s.to_string()].into_iter().collect();
    }
    chars
        .windows(q)
        .map(|w| w.iter().collect::<String>())
        .collect()
}

/// Jaccard similarity of the q-gram sets of the two strings.
pub fn qgram_similarity(a: &str, b: &str, q: usize) -> f64 {
    let ga = qgrams(a, q);
    let gb = qgrams(b, q);
    if ga.is_empty() && gb.is_empty() {
        return 1.0;
    }
    let inter = ga.intersection(&gb).count() as f64;
    let union = ga.union(&gb).count() as f64;
    inter / union
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operators_subsume_equality() {
        let ops = [
            SimilarityOp::Equality,
            SimilarityOp::edit(0),
            SimilarityOp::jaro(0.99),
            SimilarityOp::jaro_winkler(0.99),
            SimilarityOp::qgram(2, 0.99),
        ];
        for op in &ops {
            assert!(
                op.related(&Value::str("John Smith"), &Value::str("John Smith")),
                "{op}"
            );
            assert!(op.related(&Value::int(42), &Value::int(42)));
        }
    }

    #[test]
    fn operators_are_symmetric() {
        let ops = [
            SimilarityOp::edit(2),
            SimilarityOp::jaro(0.8),
            SimilarityOp::jaro_winkler(0.8),
            SimilarityOp::qgram(2, 0.4),
        ];
        let pairs = [("John", "Jon"), ("Smith", "Smyth"), ("a", "b")];
        for op in &ops {
            for (a, b) in &pairs {
                assert_eq!(
                    op.related(&Value::str(*a), &Value::str(*b)),
                    op.related(&Value::str(*b), &Value::str(*a)),
                    "{op} not symmetric on {a}/{b}"
                );
            }
        }
    }

    #[test]
    fn edit_distance_thresholds() {
        let ed1 = SimilarityOp::edit(1);
        assert!(ed1.related(&Value::str("Jon"), &Value::str("John")));
        assert!(!ed1.related(&Value::str("Jon"), &Value::str("Johnny")));
        let ed3 = SimilarityOp::edit(3);
        assert!(ed3.related(&Value::str("Jon"), &Value::str("Johnny")));
    }

    #[test]
    fn jaro_known_values() {
        assert!((jaro("MARTHA", "MARHTA") - 0.944).abs() < 0.01);
        assert!((jaro("DIXON", "DICKSONX") - 0.767).abs() < 0.01);
        assert_eq!(jaro("abc", "abc"), 1.0);
        assert_eq!(jaro("abc", "xyz"), 0.0);
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("a", ""), 0.0);
    }

    #[test]
    fn jaro_winkler_boosts_common_prefixes() {
        let j = jaro("MARTHA", "MARHTA");
        let jw = jaro_winkler("MARTHA", "MARHTA");
        assert!(jw > j);
        assert!(jw <= 1.0);
        // No common prefix: no boost.
        assert_eq!(jaro("XABC", "YABC"), jaro_winkler("XABC", "YABC"));
    }

    #[test]
    fn qgram_similarity_behaviour() {
        assert_eq!(qgram_similarity("abcd", "abcd", 2), 1.0);
        let s = qgram_similarity("J. Smith", "John Smith", 2);
        assert!(s > 0.3 && s < 1.0);
        assert_eq!(qgram_similarity("ab", "xy", 2), 0.0);
    }

    #[test]
    fn containment_relation() {
        assert!(SimilarityOp::Equality.contained_in(&SimilarityOp::edit(2)));
        assert!(SimilarityOp::edit(1).contained_in(&SimilarityOp::edit(2)));
        assert!(!SimilarityOp::edit(2).contained_in(&SimilarityOp::edit(1)));
        assert!(SimilarityOp::jaro(0.9).contained_in(&SimilarityOp::jaro(0.8)));
        assert!(!SimilarityOp::jaro(0.8).contained_in(&SimilarityOp::jaro(0.9)));
        // Different families are incomparable.
        assert!(!SimilarityOp::edit(1).contained_in(&SimilarityOp::jaro(0.1)));
        // Containment is consistent with behaviour on a sample.
        let tight = SimilarityOp::edit(1);
        let loose = SimilarityOp::edit(3);
        for (a, b) in [("Jon", "John"), ("Jon", "Johnny"), ("a", "zzz")] {
            if tight.related(&Value::str(a), &Value::str(b)) {
                assert!(loose.related(&Value::str(a), &Value::str(b)));
            }
        }
    }

    /// The pre-kernel Jaro implementation, kept verbatim as the reference
    /// for the scratch-reusing kernel.
    fn jaro_reference(a: &str, b: &str) -> f64 {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let window = (a.len().max(b.len()) / 2).saturating_sub(1);
        let mut b_matched = vec![false; b.len()];
        let mut matches = 0usize;
        let mut a_match_chars = Vec::new();
        for (i, ca) in a.iter().enumerate() {
            let lo = i.saturating_sub(window);
            let hi = (i + window + 1).min(b.len());
            for j in lo..hi {
                if !b_matched[j] && b[j] == *ca {
                    b_matched[j] = true;
                    matches += 1;
                    a_match_chars.push((i, j, *ca));
                    break;
                }
            }
        }
        if matches == 0 {
            return 0.0;
        }
        let b_match_chars: Vec<char> = {
            let mut v: Vec<(usize, char)> = b
                .iter()
                .enumerate()
                .filter(|(j, _)| b_matched[*j])
                .map(|(j, c)| (j, *c))
                .collect();
            v.sort_by_key(|(j, _)| *j);
            v.into_iter().map(|(_, c)| c).collect()
        };
        let transpositions = a_match_chars
            .iter()
            .zip(&b_match_chars)
            .filter(|((_, _, ca), cb)| ca != *cb)
            .count()
            / 2;
        let m = matches as f64;
        (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
    }

    fn random_words() -> Vec<String> {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let alphabet = ['a', 'b', 'c', 'J', 'o', 'n', ' ', '.', 'é'];
        let mut words = vec![
            String::new(),
            "MARTHA".into(),
            "MARHTA".into(),
            "DIXON".into(),
            "DICKSONX".into(),
            "J. Smith".into(),
            "John Smith".into(),
        ];
        for _ in 0..60 {
            let len = (next() % 14) as usize;
            words.push(
                (0..len)
                    .map(|_| alphabet[(next() % alphabet.len() as u64) as usize])
                    .collect(),
            );
        }
        words
    }

    /// Quickcheck: one reused kernel matches the allocating reference
    /// bit-for-bit on every pair of generated strings.
    #[test]
    fn kernel_jaro_is_bit_identical_to_the_reference() {
        let words = random_words();
        let mut kernel = SimilarityKernel::new();
        for a in &words {
            for b in &words {
                let reference = jaro_reference(a, b);
                assert_eq!(
                    kernel.jaro(a, b).to_bits(),
                    reference.to_bits(),
                    "{a:?}/{b:?}"
                );
                // The free function (thread-local kernel) agrees too.
                assert_eq!(jaro(a, b).to_bits(), reference.to_bits(), "{a:?}/{b:?}");
            }
        }
    }

    /// Quickcheck: `related_display` agrees with `related` on string values
    /// (where display form == string content) for every operator family.
    #[test]
    fn kernel_related_display_matches_naive_related() {
        let words = random_words();
        let ops = [
            SimilarityOp::Equality,
            SimilarityOp::edit(0),
            SimilarityOp::edit(1),
            SimilarityOp::edit(3),
            SimilarityOp::NormalizedEdit {
                min_similarity: 0.0,
            },
            SimilarityOp::NormalizedEdit {
                min_similarity: 0.5,
            },
            SimilarityOp::NormalizedEdit {
                min_similarity: 1.0,
            },
            SimilarityOp::NormalizedEdit {
                min_similarity: 1.5,
            },
            SimilarityOp::jaro(0.7),
            SimilarityOp::jaro_winkler(0.8),
            SimilarityOp::qgram(2, 0.4),
            SimilarityOp::qgram(3, 0.2),
        ];
        let mut kernel = SimilarityKernel::new();
        for a in &words {
            for b in &words {
                let (va, vb) = (Value::str(a.as_str()), Value::str(b.as_str()));
                for op in &ops {
                    // Mirror the caller contract: value equality first.
                    let interned = va == vb || kernel.related_display(op, a, b);
                    assert_eq!(interned, op.related(&va, &vb), "{op} on {a:?}/{b:?}");
                }
            }
        }
    }

    #[test]
    fn name_variations_from_the_fraud_example() {
        // "John Smith" vs "J. Smith" (Section 3.1) are similar under q-grams
        // and Jaro-Winkler but not exact-equal.
        let a = Value::str("John Smith");
        let b = Value::str("J. Smith");
        assert!(!SimilarityOp::Equality.related(&a, &b));
        assert!(SimilarityOp::jaro_winkler(0.7).related(&a, &b));
        assert!(SimilarityOp::qgram(2, 0.4).related(&a, &b));
    }
}

//! Dynamically typed constants.
//!
//! All dependency classes of the paper compare attribute values for equality
//! (FDs, CFDs, CINDs), order them (denial constraints with `<`, `>`), group
//! them (violation detection) and measure distances between them (the repair
//! cost model of Section 5.1).  [`Value`] therefore implements `Eq`, `Ord`
//! and `Hash` with a deterministic total order across variants, treating
//! `Real` values through their IEEE-754 total order so they can participate
//! in hash joins and B-tree style grouping without surprises.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A constant stored in a relation cell.
///
/// `Null` models missing information; it is equal to itself (so grouping is
/// well defined) but the dependency semantics in `dq-core` treat it as an
/// ordinary constant, exactly as the paper does (the paper never introduces
/// SQL three-valued logic).
#[derive(Clone, Debug)]
pub enum Value {
    /// Missing / unknown value.
    Null,
    /// Boolean constant (the canonical finite domain of Example 4.1).
    Bool(bool),
    /// 64-bit integer constant.
    Int(i64),
    /// 64-bit floating point constant (prices in Fig. 3).
    Real(f64),
    /// String constant; reference counted so projections and repairs can
    /// duplicate values without reallocating the text.
    Str(Arc<str>),
}

impl Value {
    /// Builds a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Builds an integer value.
    pub fn int(i: i64) -> Self {
        Value::Int(i)
    }

    /// Builds a real value.
    pub fn real(r: f64) -> Self {
        Value::Real(r)
    }

    /// Builds a boolean value.
    pub fn bool(b: bool) -> Self {
        Value::Bool(b)
    }

    /// Returns `true` for [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Returns the contained string, if this is a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the contained integer, if this is an integer value.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the contained real, if this is a real value.
    pub fn as_real(&self) -> Option<f64> {
        match self {
            Value::Real(r) => Some(*r),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Returns the contained boolean, if this is a boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// A small integer identifying the variant, used to order values of
    /// different types deterministically.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Real(_) => 3,
            Value::Str(_) => STR_RANK,
        }
    }

    /// Name of the variant, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Real(_) => "real",
            Value::Str(_) => "string",
        }
    }
}

/// [`Value::type_rank`] of strings.
const STR_RANK: u8 = 4;

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Real(a), Value::Real(b)) => a.total_cmp(b) == Ordering::Equal,
            // Canonicalized instances (see `crate::store::ValueInterner::canonical`)
            // share one `Arc` per distinct string, so the pointer check makes
            // their equality O(1) before falling back to content comparison.
            (Value::Str(a), Value::Str(b)) => Arc::ptr_eq(a, b) || a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Real(a), Value::Real(b)) => a.total_cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            // Mixed numeric comparisons order by numeric value first so that
            // denial constraints over mixed int/real columns behave sanely.
            (Value::Int(a), Value::Real(b)) => (*a as f64).total_cmp(b),
            (Value::Real(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        if let Value::Str(s) = self {
            return hash_str(s, state);
        }
        self.type_rank().hash(state);
        match self {
            Value::Null | Value::Str(_) => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Real(r) => r.to_bits().hash(state),
        }
    }
}

/// Hashes `s` exactly as [`Value::Str`] holding `s` hashes, so a dictionary
/// keyed by `Value` can be probed with a borrowed `&str`.
pub(crate) fn hash_str<H: Hasher>(s: &str, state: &mut H) {
    STR_RANK.hash(state);
    s.hash(state);
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Real(r) => write!(f, "{r}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Arc::from(s.as_str()))
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i as i64)
    }
}

impl From<f64> for Value {
    fn from(r: f64) -> Self {
        Value::Real(r)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

/// A simple, symmetric distance between two values in `[0, 1]`, used by the
/// repair cost model of Section 5.1 (`cost(v, v') = w(t, A) * dis(v, v')`).
///
/// * identical values have distance `0`;
/// * numeric values use a normalized absolute difference;
/// * strings use normalized Levenshtein distance;
/// * values of incomparable types (or involving `Null`) have distance `1`.
pub fn value_distance(a: &Value, b: &Value) -> f64 {
    if a == b {
        return 0.0;
    }
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => {
            let (x, y) = (*x as f64, *y as f64);
            normalized_numeric_distance(x, y)
        }
        (Value::Real(x), Value::Real(y)) => normalized_numeric_distance(*x, *y),
        (Value::Int(x), Value::Real(y)) | (Value::Real(y), Value::Int(x)) => {
            normalized_numeric_distance(*x as f64, *y)
        }
        (Value::Str(x), Value::Str(y)) => normalized_levenshtein(x, y),
        (Value::Bool(_), Value::Bool(_)) => 1.0,
        _ => 1.0,
    }
}

fn normalized_numeric_distance(x: f64, y: f64) -> f64 {
    let diff = (x - y).abs();
    let scale = x.abs().max(y.abs()).max(1.0);
    (diff / scale).min(1.0)
}

/// Levenshtein edit distance between two strings (in characters).
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j + 1] + 1).min(cur[j] + 1).min(prev[j] + cost);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Threshold-bounded Levenshtein: `Some(distance)` when the edit distance
/// is at most `k`, `None` otherwise.
///
/// Equivalent to `levenshtein(a, b) <= k` but exits early: a length
/// pre-check rejects pairs whose length difference already exceeds `k`,
/// and the DP only computes the `2k + 1`-wide band around the diagonal
/// (`D(i, j) >= |i - j|`, so cells outside the band can never come back
/// under the bound), aborting as soon as a whole band row exceeds `k`.
pub fn levenshtein_within(a: &str, b: &str, k: usize) -> Option<usize> {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    levenshtein_within_scratch(&a, &b, k, &mut Vec::new(), &mut Vec::new())
}

/// [`levenshtein_within`] over pre-split characters with caller-owned DP
/// rows, so hot loops (the similarity kernels in `dq-match`) can reuse
/// their scratch across calls.
pub fn levenshtein_within_scratch(
    a: &[char],
    b: &[char],
    k: usize,
    prev: &mut Vec<usize>,
    cur: &mut Vec<usize>,
) -> Option<usize> {
    let (n, m) = (a.len(), b.len());
    if n.abs_diff(m) > k {
        return None;
    }
    if n == 0 || m == 0 {
        // The length pre-check above already bounds the distance by `k`.
        return Some(n.max(m));
    }
    // The distance never exceeds max(n, m); clamping `k` keeps the `k + 1`
    // sentinel away from overflow without changing the answer.
    let k = k.min(n.max(m));
    let cap = k + 1;
    prev.clear();
    prev.extend((0..=m).map(|j| if j <= k { j } else { cap }));
    cur.clear();
    cur.resize(m + 1, cap);
    for i in 1..=n {
        let lo = i.saturating_sub(k).max(1);
        let hi = (i + k).min(m);
        cur[lo - 1] = if lo == 1 { i.min(cap) } else { cap };
        let mut row_min = cur[lo - 1];
        for j in lo..=hi {
            let sub = prev[j - 1] + usize::from(a[i - 1] != b[j - 1]);
            let del = prev[j] + 1;
            let ins = cur[j - 1] + 1;
            let d = sub.min(del).min(ins).min(cap);
            cur[j] = d;
            row_min = row_min.min(d);
        }
        if row_min >= cap {
            return None;
        }
        std::mem::swap(prev, cur);
    }
    let d = prev[m];
    (d <= k).then_some(d)
}

/// Levenshtein distance normalized by the longer string length, in `[0, 1]`.
pub fn normalized_levenshtein(a: &str, b: &str) -> f64 {
    let max_len = a.chars().count().max(b.chars().count());
    if max_len == 0 {
        return 0.0;
    }
    levenshtein(a, b) as f64 / max_len as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn equality_is_variant_and_value_sensitive() {
        assert_eq!(Value::int(3), Value::int(3));
        assert_ne!(Value::int(3), Value::real(3.0));
        assert_eq!(Value::str("EDI"), Value::str("EDI"));
        assert_ne!(Value::str("EDI"), Value::str("NYC"));
        assert_eq!(Value::Null, Value::Null);
        assert_ne!(Value::Null, Value::int(0));
    }

    #[test]
    fn real_values_hash_and_compare_consistently() {
        let mut set = HashSet::new();
        set.insert(Value::real(7.99));
        assert!(set.contains(&Value::real(7.99)));
        assert!(!set.contains(&Value::real(7.94)));
        assert!(Value::real(1.0) < Value::real(2.0));
    }

    #[test]
    fn mixed_numeric_ordering_uses_numeric_value() {
        assert!(Value::int(2) < Value::real(2.5));
        assert!(Value::real(1.5) < Value::int(2));
    }

    #[test]
    fn ordering_is_total_across_variants() {
        let mut vs = [
            Value::str("a"),
            Value::int(1),
            Value::Null,
            Value::bool(true),
            Value::real(0.5),
        ];
        vs.sort();
        assert_eq!(vs[0], Value::Null);
        assert_eq!(vs.last().unwrap(), &Value::str("a"));
    }

    #[test]
    fn display_round_trips_simple_values() {
        assert_eq!(Value::str("Mayfield").to_string(), "Mayfield");
        assert_eq!(Value::int(44).to_string(), "44");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn levenshtein_known_cases() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("Mike", "Michael"), 4);
    }

    #[test]
    fn value_distance_bounds() {
        assert_eq!(value_distance(&Value::str("x"), &Value::str("x")), 0.0);
        assert_eq!(value_distance(&Value::Null, &Value::int(1)), 1.0);
        let d = value_distance(&Value::str("Mayfield"), &Value::str("Crichton"));
        assert!(d > 0.0 && d <= 1.0);
        let near = value_distance(&Value::int(100), &Value::int(101));
        let far = value_distance(&Value::int(100), &Value::int(200));
        assert!(near < far);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Value::str("Snow White");
        let b = Value::str("Snow Whyte");
        assert_eq!(value_distance(&a, &b), value_distance(&b, &a));
    }

    #[test]
    fn bounded_levenshtein_known_cases() {
        assert_eq!(levenshtein_within("kitten", "sitting", 3), Some(3));
        assert_eq!(levenshtein_within("kitten", "sitting", 2), None);
        assert_eq!(levenshtein_within("", "abc", 2), None);
        assert_eq!(levenshtein_within("", "abc", 3), Some(3));
        assert_eq!(levenshtein_within("abc", "abc", 0), Some(0));
        assert_eq!(levenshtein_within("abc", "abd", 0), None);
        assert_eq!(levenshtein_within("", "", 0), Some(0));
        assert_eq!(levenshtein_within("a", "b", usize::MAX), Some(1));
    }

    /// The bounded metric agrees with the unbounded one at every threshold —
    /// in particular *at* the threshold, where the band is tightest.
    #[test]
    fn bounded_levenshtein_equals_unbounded_at_every_threshold() {
        // Deterministic pseudo-random word list, no external RNG.
        let mut state = 0x2545f4914f6cdd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let alphabet = ['a', 'b', 'c', 'd', 'é', '界'];
        let mut words: Vec<String> = vec![String::new(), "a".into(), "ab".into()];
        for _ in 0..40 {
            let len = (next() % 12) as usize;
            words.push(
                (0..len)
                    .map(|_| alphabet[(next() % alphabet.len() as u64) as usize])
                    .collect(),
            );
        }
        for a in &words {
            for b in &words {
                let exact = levenshtein(a, b);
                for k in 0..=(exact + 2) {
                    let bounded = levenshtein_within(a, b, k);
                    if exact <= k {
                        assert_eq!(bounded, Some(exact), "{a:?} vs {b:?} at k={k}");
                    } else {
                        assert_eq!(bounded, None, "{a:?} vs {b:?} at k={k}");
                    }
                }
            }
        }
    }

    /// The scratch variant leaves no state behind that changes later calls.
    #[test]
    fn bounded_levenshtein_scratch_is_reusable() {
        let mut prev = Vec::new();
        let mut cur = Vec::new();
        let pairs = [
            ("kitten", "sitting"),
            ("", "ab"),
            ("abc", "abc"),
            ("xy", "yx"),
        ];
        for (a, b) in pairs {
            let ac: Vec<char> = a.chars().collect();
            let bc: Vec<char> = b.chars().collect();
            for k in 0..6 {
                assert_eq!(
                    levenshtein_within_scratch(&ac, &bc, k, &mut prev, &mut cur),
                    levenshtein_within(a, b, k),
                    "{a:?} vs {b:?} at k={k}"
                );
            }
        }
    }
}

//! Runtime values and data types.
//!
//! A [`Value`] is the unit of data flowing through the executor. Values are
//! dynamically typed with SQL-style coercion between `Int` and `Float` in
//! arithmetic and comparisons. Floats are given a *total* order (IEEE-754
//! `total_cmp` semantics with NULL sorting first) so that values can be used
//! as grouping keys and sort keys.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::{Arc, OnceLock};

use crate::error::{EngineError, Result};

/// Logical column type as declared in `CREATE TABLE`.
///
/// The engine is dynamically typed at runtime; declared types are used for
/// display, for `CAST`, and to coerce inserted literals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Integer,
    Real,
    Text,
    /// Declared type unknown / any (columns of derived tables).
    Any,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Integer => write!(f, "INTEGER"),
            DataType::Real => write!(f, "REAL"),
            DataType::Text => write!(f, "TEXT"),
            DataType::Any => write!(f, "ANY"),
        }
    }
}

/// A dynamically typed SQL value.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Int(i64),
    Float(f64),
    Str(Arc<str>),
}

impl Value {
    /// Construct a text value.
    pub fn text(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// A copy that shares no allocation with `self`: text is copied into a
    /// new `Arc`, whose reference count no other thread touches.
    pub(crate) fn unshared(&self) -> Self {
        match self {
            Value::Str(s) => Value::text(&**s),
            other => other.clone(),
        }
    }

    /// True when the value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The dynamic type of this value.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Null => DataType::Any,
            Value::Int(_) => DataType::Integer,
            Value::Float(_) => DataType::Real,
            Value::Str(_) => DataType::Text,
        }
    }

    /// Numeric view of the value, coercing `Int` to `f64`.
    ///
    /// Returns an error for text; `Null` propagates as `None`.
    pub fn as_f64(&self) -> Result<Option<f64>> {
        match self {
            Value::Null => Ok(None),
            Value::Int(i) => Ok(Some(*i as f64)),
            Value::Float(f) => Ok(Some(*f)),
            Value::Str(s) => Err(EngineError::exec(format!(
                "expected a numeric value, found string '{s}'"
            ))),
        }
    }

    /// Integer view of the value. Floats with zero fraction are accepted.
    pub fn as_i64(&self) -> Result<Option<i64>> {
        match self {
            Value::Null => Ok(None),
            Value::Int(i) => Ok(Some(*i)),
            Value::Float(f) if f.fract() == 0.0 => Ok(Some(*f as i64)),
            other => Err(EngineError::exec(format!(
                "expected an integer value, found {other}"
            ))),
        }
    }

    /// String view; numbers render with their display form.
    pub fn as_str_lossy(&self) -> Result<Option<Cow<'_, str>>> {
        match self {
            Value::Null => Ok(None),
            Value::Str(s) => Ok(Some(Cow::Borrowed(s))),
            Value::Int(i) => Ok(Some(Cow::Owned(i.to_string()))),
            Value::Float(f) => Ok(Some(Cow::Owned(format_float(*f)))),
        }
    }

    /// SQL truthiness: NULL is unknown (None), zero is false.
    pub fn as_bool(&self) -> Result<Option<bool>> {
        match self {
            Value::Null => Ok(None),
            Value::Int(i) => Ok(Some(*i != 0)),
            Value::Float(f) => Ok(Some(*f != 0.0)),
            Value::Str(s) => Err(EngineError::exec(format!(
                "string '{s}' used in a boolean context"
            ))),
        }
    }

    /// Cast to a declared type following SQLite-style lenient rules.
    pub fn cast_to(&self, ty: DataType) -> Result<Value> {
        if self.is_null() {
            return Ok(Value::Null);
        }
        match ty {
            DataType::Any => Ok(self.clone()),
            DataType::Integer => match self {
                Value::Int(i) => Ok(Value::Int(*i)),
                Value::Float(f) => Ok(Value::Int(*f as i64)),
                Value::Str(s) => s
                    .trim()
                    .parse::<i64>()
                    .map(Value::Int)
                    .map_err(|_| EngineError::exec(format!("cannot cast '{s}' to INTEGER"))),
                Value::Null => unreachable!(),
            },
            DataType::Real => match self {
                Value::Int(i) => Ok(Value::Float(*i as f64)),
                Value::Float(f) => Ok(Value::Float(*f)),
                Value::Str(s) => s
                    .trim()
                    .parse::<f64>()
                    .map(Value::Float)
                    .map_err(|_| EngineError::exec(format!("cannot cast '{s}' to REAL"))),
                Value::Null => unreachable!(),
            },
            DataType::Text => Ok(Value::text(
                self.as_str_lossy()?.expect("non-null checked above"),
            )),
        }
    }

    /// Total-order comparison used for ORDER BY, grouping and DISTINCT.
    ///
    /// NULL sorts before everything; numbers compare numerically across
    /// Int/Float; numbers sort before strings (SQLite type-order style).
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Str(_), _) => Ordering::Greater,
            (_, Str(_)) => Ordering::Less,
        }
    }

    /// SQL equality (`=`): NULL compared with anything is unknown (None).
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.total_cmp(other) == Ordering::Equal)
    }
}

/// Format a float the way SQL engines commonly render it (no trailing `.0`
/// suppression surprises: integral floats keep one decimal).
pub fn format_float(f: f64) -> String {
    if f.fract() == 0.0 && f.is_finite() && f.abs() < 1e15 {
        format!("{f:.1}")
    } else {
        format!("{f}")
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{}", format_float(*x)),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
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
        self.total_cmp(other)
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            // Hash ints and integral floats identically so that grouping keys
            // agree with `total_cmp` equality across Int/Float.
            Value::Int(i) => {
                1u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                1u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Str(s) => {
                2u8.hash(state);
                s.hash(state);
            }
        }
    }
}

/// The hasher of every execution table keyed by values — the hash join's
/// key table, the group table, a `DISTINCT` aggregate's seen set, the key
/// filter's text set and `DISTINCT`'s row hashes.
///
/// Each word written is folded into the state by a 64×64→128-bit multiply
/// whose two halves are XORed (the design of foldhash, hashbrown's default),
/// so every input bit reaches the low bits a table buckets by. That matters
/// here: [`Value::Int`] hashes its `f64` bits, whose low 48 bits are zero
/// for small integers, and a multiply without the fold (FxHash) puts every
/// such key in one bucket. The state starts from a seed drawn once per
/// process from [`RandomState`], so whoever writes the data cannot know
/// which keys collide, and every thread computes the same hashes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ValueHash {
    seed: u64,
}

impl Default for ValueHash {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        let seed = *SEED.get_or_init(|| RandomState::new().hash_one(0u64));
        ValueHash { seed }
    }
}

impl BuildHasher for ValueHash {
    type Hasher = FoldHasher;

    fn build_hasher(&self) -> FoldHasher {
        FoldHasher { acc: self.seed }
    }
}

/// The running state of one [`ValueHash`] hash.
pub(crate) struct FoldHasher {
    acc: u64,
}

/// An odd multiplier with no structure in its bits (π's first 64 bits).
const FOLD_MULTIPLE: u64 = 0x243f_6a88_85a3_08d3;

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(word));
        }
        // The length tells `"a"` from `"a\0"`, which pad to one word.
        self.write_u64(bytes.len() as u64);
    }

    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn write_u64(&mut self, x: u64) {
        let full = u128::from(self.acc ^ x) * u128::from(FOLD_MULTIPLE);
        self.acc = (full as u64) ^ ((full >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.acc
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::text(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

/// A row of values.
pub type Row = Vec<Value>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_cmp_orders_nulls_first() {
        assert_eq!(Value::Null.total_cmp(&Value::Int(0)), Ordering::Less);
        assert_eq!(Value::Int(0).total_cmp(&Value::Null), Ordering::Greater);
        assert_eq!(Value::Null.total_cmp(&Value::Null), Ordering::Equal);
    }

    #[test]
    fn int_float_compare_numerically() {
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.0)), Ordering::Equal);
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.5)), Ordering::Less);
        assert_eq!(
            Value::Float(3.0).total_cmp(&Value::Int(2)),
            Ordering::Greater
        );
    }

    #[test]
    fn hash_agrees_with_equality_across_int_float() {
        let h = |v: &Value| ValueHash::default().hash_one(v);
        assert_eq!(h(&Value::Int(7)), h(&Value::Float(7.0)));
        assert_eq!(Value::Int(7), Value::Float(7.0));
        let key = |v: Value| ValueHash::default().hash_one(vec![v]);
        assert_eq!(key(Value::Int(-3)), key(Value::Float(-3.0)));
        assert_ne!(h(&Value::Int(7)), h(&Value::Int(8)));
    }

    /// How many distinct values the low 12 bits — the bucket bits of a
    /// 4,096-slot table — take over the one-column keys `keys`.
    fn bucket_spread(keys: impl Iterator<Item = Value>) -> usize {
        let hasher = ValueHash::default();
        let buckets: std::collections::HashSet<u64> =
            keys.map(|v| hasher.hash_one(vec![v]) & 0xfff).collect();
        buckets.len()
    }

    /// 4,096 keys thrown into 4,096 buckets by a uniform hash fill
    /// 4,096·(1 − 1/e) ≈ 2,589 of them, give or take 20. A multiply with no
    /// fold (FxHash) fills one with the integers: their `f64` bits differ
    /// only above bit 36.
    #[test]
    fn every_key_bit_reaches_the_bucket_bits() {
        const FILLED: usize = 2_400;
        let ints = bucket_spread((0..4096).map(Value::Int));
        assert!(ints >= FILLED, "integers fill {ints} of 4,096 buckets");
        let floats = bucket_spread((0..4096).map(|i| Value::Float(f64::from(i))));
        assert!(
            floats >= FILLED,
            "integral floats fill {floats} of 4,096 buckets"
        );
        let texts = bucket_spread((0..4096).map(|i| Value::text(format!("abstract:{i}"))));
        assert!(texts >= FILLED, "texts fill {texts} of 4,096 buckets");
    }

    #[test]
    fn padded_text_keeps_its_length() {
        let h = |s: &str| ValueHash::default().hash_one(Value::text(s));
        assert_ne!(h("a"), h("a\0"));
        assert_ne!(h("abcdefg"), h("abcdefg\0"));
    }

    #[test]
    fn sql_eq_null_is_unknown() {
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(1)), Some(true));
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(2)), Some(false));
    }

    #[test]
    fn casts() {
        assert_eq!(
            Value::text("42").cast_to(DataType::Integer).unwrap(),
            Value::Int(42)
        );
        assert_eq!(
            Value::Int(3).cast_to(DataType::Real).unwrap(),
            Value::Float(3.0)
        );
        assert!(Value::text("abc").cast_to(DataType::Integer).is_err());
        assert!(Value::Null.cast_to(DataType::Integer).unwrap().is_null());
    }

    #[test]
    fn string_sorts_after_numbers() {
        assert_eq!(
            Value::text("a").total_cmp(&Value::Int(999)),
            Ordering::Greater
        );
    }

    #[test]
    fn as_f64_rejects_text() {
        assert!(Value::text("x").as_f64().is_err());
        assert_eq!(Value::Int(2).as_f64().unwrap(), Some(2.0));
        assert_eq!(Value::Null.as_f64().unwrap(), None);
    }
}

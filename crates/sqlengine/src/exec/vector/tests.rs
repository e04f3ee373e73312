use super::*;
use crate::column::ChunkedTable;

/// The one column of a one-chunk image of `values`.
fn column(values: Vec<Value>) -> ColVec {
    let rows: Vec<Vec<Value>> = values.into_iter().map(|v| vec![v]).collect();
    ChunkedTable::build(&rows, 1).chunks()[0].column(0).clone()
}

/// The key set of a build side holding one row per value.
fn keys(values: &[Value]) -> KeySet {
    let keys: Vec<Vec<Value>> = values.iter().map(|v| vec![v.clone()]).collect();
    KeySet::of(keys.iter())
}

fn ints(xs: &[i64]) -> Vec<Value> {
    xs.iter().copied().map(Value::Int).collect()
}

fn texts(xs: &[&str]) -> Vec<Value> {
    xs.iter().copied().map(Value::text).collect()
}

#[test]
fn a_null_never_matches_though_its_placeholder_equals_a_key() {
    let col = column(vec![
        Value::Int(0),
        Value::Null,
        Value::Int(5),
        Value::Int(0),
    ]);
    assert!(matches!(col.data, ColumnData::Int(_)));
    assert_eq!(key_filter(&col, &keys(&ints(&[0]))), Some(vec![0, 3]));
    assert_eq!(key_filter(&col, &keys(&ints(&[0, 5]))), Some(vec![0, 2, 3]));
}

#[test]
fn int_keys_select_by_one_value_or_by_range_and_search() {
    let col = column(ints(&[4, 9, 1, 7, 12, 7, -3]));
    let one = keys(&ints(&[7]));
    assert!(matches!(&one, KeySet::Ints(xs) if xs == &[7]));
    assert_eq!(key_filter(&col, &one), Some(vec![3, 5]));
    // Sorted as built; 8 lies inside the range but is no key, and 20 is
    // past every value.
    let range = keys(&ints(&[20, 7, 1, 8]));
    assert!(matches!(&range, KeySet::Ints(xs) if xs == &[1, 7, 8, 20]));
    assert_eq!(key_filter(&col, &range), Some(vec![2, 3, 5]));
    assert_eq!(key_filter(&col, &keys(&[])), Some(vec![]));
}

#[test]
fn a_dictionary_column_is_decided_once_per_code() {
    // The NULL's placeholder is code 0, the key "a".
    let col = column(vec![
        Value::text("a"),
        Value::text("b"),
        Value::Null,
        Value::text("c"),
        Value::text("a"),
    ]);
    assert!(col.is_dict());
    let set = keys(&texts(&["a", "c", "z"]));
    assert!(matches!(set, KeySet::Strs(_)));
    assert_eq!(key_filter(&col, &set), Some(vec![0, 3, 4]));
    assert_eq!(key_filter(&col, &keys(&texts(&["z"]))), Some(vec![]));
}

#[test]
fn text_and_numbers_never_meet() {
    let strs = keys(&texts(&["1"]));
    let int_col = column(ints(&[1, 2]));
    let float_col = column(vec![Value::Float(1.0), Value::Float(2.0)]);
    assert_eq!(key_filter(&int_col, &strs), Some(vec![]));
    assert_eq!(key_filter(&float_col, &strs), Some(vec![]));
    let dict_col = column(texts(&["1", "2"]));
    assert_eq!(key_filter(&dict_col, &keys(&ints(&[1]))), Some(vec![]));
}

#[test]
fn what_only_the_row_probe_can_decide_is_left_to_it() {
    // `Int(1)` and `Float(1.0)` are one join key.
    let float_col = column(vec![Value::Float(1.0), Value::Float(2.0)]);
    assert_eq!(key_filter(&float_col, &keys(&ints(&[1]))), None);
    // Float keys, mixed keys and two-column keys make no typed set.
    for set in [
        keys(&[Value::Float(1.0)]),
        keys(&[Value::Int(1), Value::text("a")]),
        KeySet::of([vec![Value::Int(1), Value::Int(2)]].iter()),
    ] {
        assert!(matches!(set, KeySet::Untyped), "{set:?}");
        assert_eq!(key_filter(&column(ints(&[1, 2])), &set), None);
    }
    // A column of mixed variants holds plain values.
    let mixed = column(vec![Value::Int(1), Value::text("a")]);
    assert_eq!(key_filter(&mixed, &keys(&ints(&[1]))), None);
}

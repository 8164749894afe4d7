//! Small helpers over the JSON value tree.

pub use serde::Value;

pub fn obj<'a>(entries: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn num(v: f64) -> Value {
    Value::Float(v)
}

pub fn int(v: u64) -> Value {
    Value::Int(i128::from(v))
}

pub fn text(v: &str) -> Value {
    Value::Str(v.to_string())
}

pub fn to_string(v: &Value) -> String {
    serde_json::to_string(v).expect("value trees always serialize")
}

pub fn is_true(v: &Value, key: &str) -> bool {
    matches!(v.get(key), Some(Value::Bool(true)))
}

pub fn get_u64(v: &Value, key: &str) -> Option<u64> {
    match v.get(key)? {
        Value::Int(i) => u64::try_from(*i).ok(),
        _ => None,
    }
}

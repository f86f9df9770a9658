//! Shim for `serde_json`: text parsing/printing for the serde shim's
//! [`Value`] tree, plus `to_string` / `from_str` / `to_value` /
//! `from_value` and the [`json!`] macro.

mod read;
mod write;

pub use serde::{Deserialize, Error, Map, Number, Serialize, Value};

/// Serialise `value` to its JSON text form.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(write::write_value(&value.serialize_value()))
}

/// Parse JSON text and deserialise into `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = read::parse(s)?;
    T::deserialize_value(&value)
}

/// Render any serialisable value as a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    Ok(value.serialize_value())
}

/// Deserialise `T` out of a [`Value`] tree.
pub fn from_value<T: Deserialize>(value: Value) -> Result<T, Error> {
    T::deserialize_value(&value)
}

/// Build a [`Value`] from a JSON-shaped literal. Keys must be string
/// literals; values are expressions whose types implement `Serialize`
/// (nest further `json!` calls for inner objects/arrays).
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ({ $($key:literal : $val:expr),* $(,)? }) => {{
        #[allow(unused_mut)]
        let mut __map = $crate::Map::new();
        $( __map.insert($key, $crate::json!($val)); )*
        $crate::Value::Object(__map)
    }};
    ([ $($val:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::json!($val) ),* ])
    };
    ($other:expr) => {
        $crate::to_value(&$other).expect("json! value serialises")
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_value_text() {
        let v = json!({
            "a": 1,
            "b": json!([1.5, -2, true, Value::Null]),
            "c": json!({ "nested": "stri\"ng\n" }),
            "d": "é日本🦀",
        });
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, v);
        assert_eq!(back["a"].as_u64(), Some(1));
        assert_eq!(back["b"][0].as_f64(), Some(1.5));
        assert_eq!(back["c"]["nested"].as_str(), Some("stri\"ng\n"));
        assert_eq!(back["d"].as_str(), Some("é日本🦀"));
        assert!(back["missing"].is_null());
    }

    #[test]
    fn float_fidelity() {
        for x in [0.1f64, 1.0 / 3.0, f64::MAX, -12345.678e-9, 2.0] {
            let text = to_string(&x).unwrap();
            let back: f64 = from_str(&text).unwrap();
            assert_eq!(back, x, "{text}");
        }
        let f: f32 = 0.12345678;
        let back: f32 = from_str(&to_string(&f).unwrap()).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<Value>("not json").is_err());
        assert!(from_str::<Value>("{\"a\": 1").is_err());
        assert!(from_str::<Value>("[1, 2,,]").is_err());
        assert!(from_str::<Value>("{} trailing").is_err());
        assert!(from_str::<Value>("").is_err());
        assert!(from_str::<Value>("\"raw\u{1}control\"").is_err());
    }

    #[test]
    fn index_mut_surgery() {
        let mut v = json!({ "w": json!({ "data": json!([1, 2, 3]) }) });
        v["w"]["data"][1] = json!(9.5);
        assert_eq!(v["w"]["data"][1].as_f64(), Some(9.5));
        v["new_key"] = json!("x");
        assert_eq!(v["new_key"].as_str(), Some("x"));
    }
}

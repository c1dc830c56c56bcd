//! Hand-rolled JSON output (the workspace is serde-free); parsing
//! reuses the journal's parser.

pub use smtsim_rob2::journal::{json_string, parse_json, Json};

/// A number as JSON: every digit of the shortest round-trip form;
/// non-finite values become `null`.
#[must_use]
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// A JSON array of already-encoded items.
#[must_use]
pub fn arr(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
}

/// An object builder writing keys in call order.
#[derive(Debug, Default)]
pub struct Obj(Vec<String>);

impl Obj {
    /// An empty object.
    #[must_use]
    pub fn new() -> Obj {
        Obj::default()
    }

    /// Adds a field whose value is already JSON.
    #[must_use]
    pub fn raw(mut self, key: &str, value: impl Into<String>) -> Obj {
        self.0
            .push(format!("{}:{}", json_string(key), value.into()));
        self
    }

    /// Adds a string field.
    #[must_use]
    pub fn str(self, key: &str, value: &str) -> Obj {
        self.raw(key, json_string(value))
    }

    /// Adds a number field.
    #[must_use]
    pub fn num(self, key: &str, value: f64) -> Obj {
        self.raw(key, num(value))
    }

    /// Adds an integer field.
    #[must_use]
    pub fn int(self, key: &str, value: u64) -> Obj {
        self.raw(key, value.to_string())
    }

    /// The encoded object.
    #[must_use]
    pub fn finish(self) -> String {
        format!("{{{}}}", self.0.join(","))
    }
}

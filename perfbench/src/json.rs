//! A minimal JSON object writer for the benchmark's result lines.

use std::fmt::Write;

/// An ordered JSON object under construction.
#[derive(Default)]
pub struct Obj(Vec<(String, String)>);

/// A finite number as JSON (`null` otherwise, which the runner rejects).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

impl Obj {
    pub fn new() -> Self {
        Obj::default()
    }

    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        self.0.push((key.to_string(), number(v)));
        self
    }

    pub fn int(&mut self, key: &str, v: u64) -> &mut Self {
        self.0.push((key.to_string(), v.to_string()));
        self
    }

    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.0.push((key.to_string(), v.to_string()));
        self
    }

    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        let mut s = String::from("\"");
        for c in v.chars() {
            match c {
                '"' => s.push_str("\\\""),
                '\\' => s.push_str("\\\\"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(s, "\\u{:04x}", c as u32);
                }
                c => s.push(c),
            }
        }
        s.push('"');
        self.0.push((key.to_string(), s));
        self
    }

    pub fn list(&mut self, key: &str, vs: &[f64]) -> &mut Self {
        let items: Vec<String> = vs.iter().map(|&v| number(v)).collect();
        self.0
            .push((key.to_string(), format!("[{}]", items.join(","))));
        self
    }

    pub fn obj(&mut self, key: &str, o: &Obj) -> &mut Self {
        self.0.push((key.to_string(), o.to_string()));
        self
    }
}

impl std::fmt::Display for Obj {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_char('{')?;
        for (i, (k, v)) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_char(',')?;
            }
            write!(f, "\"{k}\":{v}")?;
        }
        f.write_char('}')
    }
}

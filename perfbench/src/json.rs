//! The result line: one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`, printed last on standard output.

use crate::metrics::MetricDef;

/// One measured metric value, in the unit its definition names.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    /// The definition this value measures.
    pub def: &'static MetricDef,
    /// The measured value.
    pub value: f64,
}

/// Renders the result line. Values print with every digit Rust's
/// shortest round-trip formatting gives.
///
/// # Panics
///
/// Panics on a non-finite value: JSON has no spelling for it, and a
/// metric that measured NaN is a bug in the benchmark.
pub fn result_line(correct: bool, attempted: u64, failed: u64, values: &[Value]) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|v| {
            assert!(
                v.value.is_finite(),
                "metric {} is not finite: {}",
                v.def.name,
                v.value
            );
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                v.def.name, v.value, v.def.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// A minimal JSON reader, enough to check this crate's own output and
/// the repository's `BENCHMARK.json` in tests.
#[cfg(test)]
pub mod parse {
    use std::collections::BTreeMap;

    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(BTreeMap<String, Json>),
    }

    impl Json {
        pub fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(m) => m.get(key),
                _ => None,
            }
        }
        pub fn str(&self) -> Option<&str> {
            match self {
                Json::Str(s) => Some(s),
                _ => None,
            }
        }
        pub fn arr(&self) -> &[Json] {
            match self {
                Json::Arr(a) => a,
                _ => &[],
            }
        }
    }

    /// Parses one JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing input at byte {}", p.i));
        }
        Ok(v)
    }

    struct Parser<'a> {
        s: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }
        fn eat(&mut self, c: u8) -> Result<(), String> {
            self.ws();
            if self.s.get(self.i) == Some(&c) {
                self.i += 1;
                Ok(())
            } else {
                Err(format!("expected {:?} at byte {}", c as char, self.i))
            }
        }
        fn value(&mut self) -> Result<Json, String> {
            self.ws();
            match self.s.get(self.i) {
                Some(b'{') => {
                    self.i += 1;
                    let mut m = BTreeMap::new();
                    self.ws();
                    if self.s.get(self.i) == Some(&b'}') {
                        self.i += 1;
                        return Ok(Json::Obj(m));
                    }
                    loop {
                        self.ws();
                        let Json::Str(k) = self.value()? else {
                            return Err(format!("object key at byte {}", self.i));
                        };
                        self.eat(b':')?;
                        let v = self.value()?;
                        if m.insert(k.clone(), v).is_some() {
                            return Err(format!("duplicate key {k:?}"));
                        }
                        self.ws();
                        match self.s.get(self.i) {
                            Some(b',') => self.i += 1,
                            Some(b'}') => {
                                self.i += 1;
                                return Ok(Json::Obj(m));
                            }
                            _ => return Err(format!("bad object at byte {}", self.i)),
                        }
                    }
                }
                Some(b'[') => {
                    self.i += 1;
                    let mut a = Vec::new();
                    self.ws();
                    if self.s.get(self.i) == Some(&b']') {
                        self.i += 1;
                        return Ok(Json::Arr(a));
                    }
                    loop {
                        a.push(self.value()?);
                        self.ws();
                        match self.s.get(self.i) {
                            Some(b',') => self.i += 1,
                            Some(b']') => {
                                self.i += 1;
                                return Ok(Json::Arr(a));
                            }
                            _ => return Err(format!("bad array at byte {}", self.i)),
                        }
                    }
                }
                Some(b'"') => {
                    self.i += 1;
                    let start = self.i;
                    while self.s.get(self.i).is_some_and(|&c| c != b'"') {
                        if self.s[self.i] == b'\\' {
                            return Err("escapes are not supported".into());
                        }
                        self.i += 1;
                    }
                    let out = String::from_utf8(self.s[start..self.i].to_vec())
                        .map_err(|e| e.to_string())?;
                    self.eat(b'"')?;
                    Ok(Json::Str(out))
                }
                Some(b't') | Some(b'f') | Some(b'n') => {
                    for (word, v) in [
                        ("true", Json::Bool(true)),
                        ("false", Json::Bool(false)),
                        ("null", Json::Null),
                    ] {
                        if self.s[self.i..].starts_with(word.as_bytes()) {
                            self.i += word.len();
                            return Ok(v);
                        }
                    }
                    Err(format!("bad literal at byte {}", self.i))
                }
                Some(_) => {
                    let start = self.i;
                    while self
                        .s
                        .get(self.i)
                        .is_some_and(|c| b"+-.eE0123456789".contains(c))
                    {
                        self.i += 1;
                    }
                    std::str::from_utf8(&self.s[start..self.i])
                        .ok()
                        .and_then(|t| t.parse().ok())
                        .map(Json::Num)
                        .ok_or_else(|| format!("bad number at byte {start}"))
                }
                None => Err("unexpected end of input".into()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::parse::{parse, Json};
    use super::*;
    use crate::metrics::END_TO_END;

    #[test]
    fn result_line_parses_back() {
        let values = [
            Value {
                def: &END_TO_END[0],
                value: 0.8127,
            },
            Value {
                def: &END_TO_END[1],
                value: 1.0e-9,
            },
        ];
        let line = result_line(true, 1000, 0, &values);
        let v = parse(&line).expect("valid JSON");
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(v.get("attempted"), Some(&Json::Num(1000.0)));
        let m = v.get("metrics").unwrap();
        let first = m.get(END_TO_END[0].name).unwrap();
        assert_eq!(first.get("value"), Some(&Json::Num(0.8127)));
        assert_eq!(first.get("unit").unwrap().str(), Some(END_TO_END[0].unit));
        let second = m.get(END_TO_END[1].name).unwrap();
        assert_eq!(second.get("value"), Some(&Json::Num(1.0e-9)));
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn nan_is_refused() {
        result_line(
            true,
            1,
            0,
            &[Value {
                def: &END_TO_END[0],
                value: f64::NAN,
            }],
        );
    }
}

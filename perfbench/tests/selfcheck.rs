//! The benchmark's own quick self-check: every workload, end to end and
//! traced, at a tiny circuit size. Each run must exit 0, end its output
//! with a JSON object that parses, and print every metric `BENCHMARK.json`
//! names for that mode, with the unit named there.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }
}

/// A strict parser for the JSON subset the benchmark reads and writes.
struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Result<Json, String> {
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
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value()? else {
                        return Err(format!("object key expected at byte {}", self.i));
                    };
                    self.eat(b':')?;
                    fields.push((k, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("',' or '}}' expected at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("',' or ']' expected at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    match self.s.get(self.i) {
                        None => return Err("unterminated string".into()),
                        Some(b'"') => {
                            self.i += 1;
                            return Ok(Json::Str(out));
                        }
                        Some(b'\\') => {
                            let c = self.s.get(self.i + 1).ok_or("bad escape")?;
                            out.push(match c {
                                b'"' => '"',
                                b'\\' => '\\',
                                b'/' => '/',
                                b'n' => '\n',
                                b't' => '\t',
                                _ => return Err(format!("unsupported escape at byte {}", self.i)),
                            });
                            self.i += 2;
                        }
                        Some(_) => {
                            let rest = std::str::from_utf8(&self.s[self.i..])
                                .map_err(|e| e.to_string())?;
                            let c = rest.chars().next().expect("non-empty");
                            out.push(c);
                            self.i += c.len_utf8();
                        }
                    }
                }
            }
            Some(b't') if self.s[self.i..].starts_with(b"true") => {
                self.i += 4;
                Ok(Json::Bool(true))
            }
            Some(b'f') if self.s[self.i..].starts_with(b"false") => {
                self.i += 5;
                Ok(Json::Bool(false))
            }
            Some(b'n') if self.s[self.i..].starts_with(b"null") => {
                self.i += 4;
                Ok(Json::Null)
            }
            Some(c) if *c == b'-' || c.is_ascii_digit() => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                text.parse()
                    .map(Json::Num)
                    .map_err(|_| format!("bad number {text}"))
            }
            _ => Err(format!("unexpected input at byte {}", self.i)),
        }
    }
}

fn definition() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    Parser::parse(&text).expect("BENCHMARK.json parses")
}

fn run(workload: &str, trace: u8) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--tiny"])
        .output()
        .expect("benchmark starts");
    assert!(
        out.status.success(),
        "{workload} trace {trace} exited with {}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("some output");
    Parser::parse(last).unwrap_or_else(|e| panic!("{workload} trace {trace}: {e}: {last}"))
}

fn check(workload: &str, trace: u8) {
    let def = definition();
    let section = if trace == 0 {
        "end_to_end"
    } else {
        "per_layer"
    };
    let Some(Json::Arr(wanted)) = def.get(section) else {
        panic!("BENCHMARK.json has no {section} list");
    };
    let result = run(workload, trace);
    let Json::Obj(fields) = &result else {
        panic!("result is not an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("correct"),
        Some(&Json::Bool(true)),
        "{workload} trace {trace}"
    );
    match (result.get("attempted"), result.get("failed")) {
        (Some(Json::Num(a)), Some(Json::Num(f))) => {
            assert!(*a >= 1.0 && a.fract() == 0.0 && f.fract() == 0.0 && *f >= 0.0);
        }
        other => panic!("attempted/failed are not numbers: {other:?}"),
    }
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("metrics is not an object");
    };
    assert_eq!(
        metrics.len(),
        wanted.len(),
        "{workload} trace {trace}: metric count"
    );
    for m in wanted {
        let name = m.get("name").expect("metric name").str();
        let unit = m.get("unit").expect("metric unit").str();
        let got = result.get("metrics").and_then(|ms| ms.get(name));
        let got = got.unwrap_or_else(|| panic!("{workload} trace {trace}: {name} missing"));
        assert!(
            matches!(got.get("value"), Some(Json::Num(_))),
            "{name} has no value"
        );
        assert_eq!(got.get("unit").map(Json::str), Some(unit), "{name} unit");
    }
}

#[test]
fn prove_large_end_to_end() {
    check("prove-large", 0);
}

#[test]
fn prove_large_traced() {
    check("prove-large", 1);
}

#[test]
fn serve_small_end_to_end() {
    check("serve-small", 0);
}

#[test]
fn serve_small_traced() {
    check("serve-small", 1);
}

#[test]
fn verify_stream_end_to_end() {
    check("verify-stream", 0);
}

#[test]
fn verify_stream_traced() {
    check("verify-stream", 1);
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "serve-small", "--seconds", "x"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("benchmark starts");
        assert!(!out.status.success());
        assert!(out.stdout.is_empty());
    }
}

#[test]
fn parser_rejects_malformed_json() {
    assert!(Parser::parse("{\"a\": 1,}").is_err());
    assert!(Parser::parse("{\"a\": 1} x").is_err());
    assert_eq!(
        Parser::parse("[1.5, true]"),
        Ok(Json::Arr(vec![Json::Num(1.5), Json::Bool(true)]))
    );
}

//! Small shared pieces: a seeded RNG, order statistics, a minimal JSON
//! reader, and the in-memory span recorder.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// splitmix64: the benchmark's own RNG, so the inputs it generates do not
/// depend on the program's sampling code.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5151_ba5e_0000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The benchmark's reference computation: a dependent walk through a
/// random cycle over 1 MiB (about the size of the workload graph's CSR)
/// with a multiply per step, so it waits on caches and on the core much
/// as the program's generation and selection loops do. It shares no code
/// with the program. Timed between requests, on as many threads at once
/// as the server may use, it tracks how fast the shared host's cores and
/// caches run at that moment.
///
/// Successive walks take turns over four such cycles, so each walk finds
/// its cycle out of the core's cache (the three others have passed
/// through since), whether or not the server ran just before it.
pub struct Reference {
    cycles: Vec<Vec<u32>>,
    turn: AtomicUsize,
}

impl Reference {
    const LEN: usize = 1 << 18;
    const STEPS: usize = 1 << 17;
    const CYCLES: usize = 4;

    pub fn new() -> Reference {
        let mut rng = Rng::new(0x7ef);
        let cycles = (0..Self::CYCLES)
            .map(|_| {
                // Sattolo's shuffle: one cycle through every slot.
                let mut next: Vec<u32> = (0..Self::LEN as u32).collect();
                for i in (1..Self::LEN).rev() {
                    next.swap(i, rng.below(i));
                }
                next
            })
            .collect();
        Reference {
            cycles,
            turn: AtomicUsize::new(0),
        }
    }

    /// Runs the walk on `threads` threads at once; returns the mean of
    /// their wall times in ms.
    pub fn time_ms(&self, threads: usize) -> f64 {
        let cycle = &self.cycles[self.turn.fetch_add(1, Ordering::Relaxed) % Self::CYCLES];
        let times: Vec<f64> = std::thread::scope(|s| {
            let walks: Vec<_> = (0..threads).map(|_| s.spawn(|| walk_ms(cycle))).collect();
            walks
                .into_iter()
                .map(|w| w.join().expect("reference walk"))
                .collect()
        });
        mean(&times)
    }
}

fn walk_ms(next: &[u32]) -> f64 {
    let start = Instant::now();
    let (mut at, mut acc) = (0u32, 1u64);
    for _ in 0..Reference::STEPS {
        at = next[at as usize];
        acc = acc.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ at as u64;
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of the middle half of the samples (a quarter of them, rounded
/// down, dropped from each end). Unlike the median it does not jump
/// between the modes of a two-mode distribution.
pub fn interquartile_mean(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    mean(&v[cut..v.len() - cut])
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// A parsed JSON value (just enough for `--stats-out` files and
/// `BENCHMARK.json`).
#[derive(Debug, Clone)]
pub enum Json {
    Null,
    Bool,
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = JsonParser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing bytes at offset {}", p.i));
        }
        Ok(v)
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn num(&self, key: &str) -> Result<f64, String> {
        match self.get(key) {
            Some(Json::Num(x)) => Ok(*x),
            _ => Err(format!("missing number {key:?}")),
        }
    }

    pub fn str(&self, key: &str) -> Option<&str> {
        match self.get(key) {
            Some(Json::Str(s)) => Some(s),
            _ => None,
        }
    }

    pub fn arr(&self, key: &str) -> &[Json] {
        match self.get(key) {
            Some(Json::Arr(a)) => a,
            _ => &[],
        }
    }
}

struct JsonParser<'a> {
    s: &'a [u8],
    i: usize,
}

impl JsonParser<'_> {
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
            Err(format!("expected {:?} at offset {}", c as char, self.i))
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
                    let k = self.string()?;
                    self.eat(b':')?;
                    m.insert(k, self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(m));
                        }
                        _ => return Err(format!("bad object at offset {}", self.i)),
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
                        _ => return Err(format!("bad array at offset {}", self.i)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.s[self.i..].starts_with(b"true") => {
                self.i += 4;
                Ok(Json::Bool)
            }
            Some(b'f') if self.s[self.i..].starts_with(b"false") => {
                self.i += 5;
                Ok(Json::Bool)
            }
            Some(b'n') if self.s[self.i..].starts_with(b"null") => {
                self.i += 4;
                Ok(Json::Null)
            }
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at offset {start}"))
            }
            None => Err("unexpected end of JSON".into()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.s.get(self.i) {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let c = *self.s.get(self.i + 1).ok_or("unterminated escape")?;
                    out.push(match c {
                        b'n' => '\n',
                        b't' => '\t',
                        other => other as char,
                    });
                    self.i += 2;
                }
                Some(_) => {
                    // Copy one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.s[self.i..]).map_err(|e| e.to_string())?;
                    let ch = rest.chars().next().expect("non-empty");
                    out.push(ch);
                    self.i += ch.len_utf8();
                }
                None => return Err("unterminated string".into()),
            }
        }
    }
}

/// One recorded span: a named interval, the request it belongs to, and
/// the span that caused it.
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans kept in memory and written out once, when the run ends.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id (for children).
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a top-level span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.record(name, 0, None, start, end);
        (out, (end - start) as f64 / 1e9)
    }

    /// JSON-lines rendering, one span per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"request\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.name,
                s.request,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 0.99), 5.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(interquartile_mean(&[100.0, 2.0, 3.0, 0.0]), 2.5);
        assert_eq!(interquartile_mean(&[7.0]), 7.0);
    }

    #[test]
    fn reads_stats_and_benchmark_json() {
        let j =
            Json::parse(r#"{"a": 1.5, "b": [{"name": "x\"y"}], "c": true, "d": null}"#).unwrap();
        assert_eq!(j.num("a").unwrap(), 1.5);
        assert_eq!(j.arr("b")[0].str("name"), Some("x\"y"));
        assert!(Json::parse("{\"a\": 1} x").is_err());
    }
}

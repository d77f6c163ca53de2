//! The server under test: spawning `subsim query-server --framed`,
//! the framed unix-socket client, shutdown, and reading what the
//! program already reports (its stderr log lines, `--stats-out`, and
//! `VmHWM` from procfs).

use crate::util::Json;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use subsim_serve::net::frame::encode_frame;

/// Longest the benchmark waits for a server to accept, a reply to
/// arrive, or a server to exit after `shutdown`.
const PATIENCE: Duration = Duration::from_secs(120);

/// Edge-weight model the server applies to the workload graph.
#[derive(Clone, Copy, Debug)]
pub enum Model {
    /// Weighted cascade, `p(u, v) = 1 / d_in(v)`.
    Wc,
    /// The high-influence WC variant at `θ = 4`.
    WcVariant4,
}

/// One server configuration: the CLI flags a launch passes.
#[derive(Clone, Debug)]
pub struct Spec {
    pub model: Model,
    pub seed: u64,
    pub threads: usize,
    pub shards: usize,
    pub delta_stream: bool,
    pub sentinels: usize,
    pub sketch: usize,
    pub warm: usize,
}

impl Spec {
    fn args(&self, graph: &Path, sock: &Path, stats: &Path) -> Vec<String> {
        let mut a: Vec<String> = vec![
            "query-server".into(),
            "--graph".into(),
            graph.display().to_string(),
            "--seed".into(),
            self.seed.to_string(),
            "--threads".into(),
            self.threads.to_string(),
            "--framed".into(),
            "--socket".into(),
            sock.display().to_string(),
            "--stats-out".into(),
            stats.display().to_string(),
        ];
        match self.model {
            Model::Wc => a.extend(["--model".into(), "wc".into()]),
            Model::WcVariant4 => a.extend([
                "--model".into(),
                "wc-variant".into(),
                "--theta".into(),
                "4".into(),
            ]),
        }
        if self.delta_stream {
            a.push("--delta-stream".into());
        }
        if self.shards > 1 {
            a.extend(["--shards".into(), self.shards.to_string()]);
        }
        if self.sentinels > 0 {
            a.extend(["--sentinels".into(), self.sentinels.to_string()]);
        }
        if self.sketch > 0 {
            a.extend(["--sketch".into(), self.sketch.to_string()]);
        }
        if self.warm > 0 {
            a.extend(["--warm".into(), self.warm.to_string()]);
        }
        a
    }
}

/// A blocking client connection speaking the length-framed protocol:
/// a 4-byte big-endian payload length, then the payload.
pub struct Conn {
    stream: UnixStream,
}

impl Conn {
    pub fn connect(path: &Path) -> std::io::Result<Conn> {
        let stream = UnixStream::connect(path)?;
        stream.set_read_timeout(Some(PATIENCE))?;
        Ok(Conn { stream })
    }

    pub fn send(&mut self, payload: &str) -> std::io::Result<()> {
        let mut buf = Vec::with_capacity(4 + payload.len());
        encode_frame(payload, &mut buf);
        self.stream.write_all(&buf)
    }

    pub fn recv(&mut self) -> std::io::Result<String> {
        let mut head = [0u8; 4];
        self.stream.read_exact(&mut head)?;
        let len = u32::from_be_bytes(head) as usize;
        if len > 1 << 20 {
            return Err(std::io::Error::other(format!("reply frame of {len} bytes")));
        }
        let mut body = vec![0u8; len];
        self.stream.read_exact(&mut body)?;
        String::from_utf8(body).map_err(std::io::Error::other)
    }

    pub fn request(&mut self, payload: &str) -> std::io::Result<String> {
        self.send(payload)?;
        self.recv()
    }
}

/// Server-side startup marks read from the stderr log while waiting for
/// the socket (traced runs only): when the graph was built, and when the
/// socket accepted, both from spawn.
#[derive(Clone, Copy, Debug, Default)]
pub struct StartupMarks {
    pub graph_s: f64,
    pub accept_s: f64,
}

/// A running server.
pub struct Server {
    child: Child,
    pub sock: PathBuf,
    log: PathBuf,
    stats: PathBuf,
    /// Spawn until the socket accepted a connection.
    pub setup_s: f64,
    /// The connection that proved the socket accepts.
    pub first: Option<Conn>,
    pub marks: StartupMarks,
}

/// What a server left behind after a clean shutdown.
pub struct Finished {
    pub peak_rss_mib: f64,
    pub stats: Json,
    pub log: String,
}

impl Server {
    /// Spawns a server and waits until its socket accepts. stderr goes to
    /// a file (one line per answered query would fill a pipe and stall
    /// the server), stdout to the null device.
    pub fn launch(
        bin: &Path,
        spec: &Spec,
        graph: &Path,
        work: &Path,
        tag: &str,
        watch_log: bool,
    ) -> Result<Server, String> {
        let sock = work.join(format!("{tag}.sock"));
        let log = work.join(format!("{tag}.log"));
        let stats = work.join(format!("{tag}.stats.json"));
        for p in [&sock, &stats] {
            let _ = std::fs::remove_file(p);
        }
        let log_file =
            std::fs::File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
        let start = Instant::now();
        let mut child = Command::new(bin)
            .args(spec.args(graph, &sock, &stats))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::from(log_file))
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut marks = StartupMarks::default();
        loop {
            if let Ok(conn) = Conn::connect(&sock) {
                let setup_s = start.elapsed().as_secs_f64();
                marks.accept_s = setup_s;
                return Ok(Server {
                    child,
                    sock,
                    log,
                    stats,
                    setup_s,
                    first: Some(conn),
                    marks,
                });
            }
            if watch_log && marks.graph_s == 0.0 {
                let text = std::fs::read_to_string(&log).unwrap_or_default();
                if text.contains("graph: ") {
                    marks.graph_s = start.elapsed().as_secs_f64();
                }
            }
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!(
                    "server {tag} exited during startup ({status}): {}",
                    tail(&log)
                ));
            }
            if start.elapsed() > PATIENCE {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("server {tag} did not accept within {PATIENCE:?}"));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// The server's stderr so far.
    pub fn log_text(&self) -> String {
        std::fs::read_to_string(&self.log).unwrap_or_default()
    }

    /// Reads `VmHWM`, sends a `shutdown` frame, and waits for the process
    /// to exit and write `--stats-out`. Every other connection to this
    /// server must be closed first.
    pub fn shutdown(mut self) -> Result<Finished, String> {
        drop(self.first.take());
        let peak_rss_mib = vm_hwm_mib(self.child.id())?;
        let reply = Conn::connect(&self.sock)
            .and_then(|mut c| c.request("shutdown"))
            .map_err(|e| format!("shutdown: {e}"))?;
        if reply != "ok shutdown" {
            return Err(format!("shutdown replied {reply:?}"));
        }
        let start = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => {
                    return Err(format!("server exited with {status}: {}", tail(&self.log)))
                }
                Ok(None) if start.elapsed() > PATIENCE => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("server did not exit after shutdown".into());
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => return Err(format!("waiting for server: {e}")),
            }
        }
        let text = std::fs::read_to_string(&self.stats)
            .map_err(|e| format!("{}: {e}", self.stats.display()))?;
        Ok(Finished {
            peak_rss_mib,
            stats: Json::parse(&text)?,
            log: self.log_text(),
        })
    }
}

impl Drop for Server {
    /// A server left running by an error path is killed and reaped, so
    /// the benchmark never leaves a process behind.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn tail(log: &Path) -> String {
    let text = std::fs::read_to_string(log).unwrap_or_default();
    let lines: Vec<&str> = text.lines().collect();
    lines[lines.len().saturating_sub(5)..].join(" | ")
}

/// Peak resident set (`VmHWM`) of a process, MiB.
fn vm_hwm_mib(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("reading /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line".into())
}

/// One `query k=… eps=…: pool a→b sets/half (f fresh, r reused), n
/// rounds, ratio …, <elapsed>` line of the server log (its `QueryStats`).
#[derive(Clone, Debug)]
pub struct QueryLog {
    pub pool_after: usize,
    pub fresh: usize,
    pub rounds: u32,
    pub ms: f64,
}

/// One `delta applied: version v, a/b sets regenerated (x% of pool, c
/// chunks), <elapsed>` line (its `RepairReport`).
#[derive(Clone, Debug)]
pub struct DeltaLog {
    pub regenerated: usize,
    pub pool_sets: usize,
    pub ms: f64,
}

pub fn query_logs(log: &str) -> Vec<QueryLog> {
    log.lines()
        .filter(|l| l.starts_with("query k="))
        .filter_map(|l| {
            let (_, rest) = l.split_once(": pool ")?;
            let (pools, rest) = rest.split_once(" sets/half (")?;
            let pool_after = pools.split('→').nth(1)?.parse().ok()?;
            let (fresh, rest) = rest.split_once(" fresh, ")?;
            let (_, rest) = rest.split_once(" reused), ")?;
            let (rounds, rest) = rest.split_once(" rounds, ")?;
            let elapsed = rest.rsplit(", ").next()?;
            Some(QueryLog {
                pool_after,
                fresh: fresh.parse().ok()?,
                rounds: rounds.parse().ok()?,
                ms: duration_ms(elapsed)?,
            })
        })
        .collect()
}

pub fn delta_logs(log: &str) -> Vec<DeltaLog> {
    log.lines()
        .filter_map(|l| l.strip_prefix("delta applied: version "))
        .filter_map(|rest| {
            let (_, rest) = rest.split_once(", ")?;
            let (counts, rest) = rest.split_once(" sets regenerated")?;
            let (regenerated, pool_sets) = counts.split_once('/')?;
            let elapsed = rest.rsplit(", ").next()?;
            Some(DeltaLog {
                regenerated: regenerated.parse().ok()?,
                pool_sets: pool_sets.parse().ok()?,
                ms: duration_ms(elapsed)?,
            })
        })
        .collect()
}

/// Parses a `std::time::Duration` `Debug` rendering (`12.5ms`, `830µs`,
/// `1.2s`, `900ns`) into milliseconds.
fn duration_ms(s: &str) -> Option<f64> {
    let s = s.trim();
    let split = s.find(|c: char| !(c.is_ascii_digit() || c == '.'))?;
    let (num, unit) = s.split_at(split);
    let x: f64 = num.parse().ok()?;
    Some(match unit {
        "s" => x * 1e3,
        "ms" => x,
        "µs" | "us" => x / 1e3,
        "ns" => x / 1e6,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_servers_log_lines() {
        let log = "graph: 5 nodes\n\
            query k=50 eps=0.1: pool 0→4096 sets/half (8192 fresh, 0 reused), 5 rounds, ratio 0.6532, 45.25ms\n\
            query k=10 eps=0.2: pool 4096→4096 sets/half (0 fresh, 8192 reused), 1 rounds, ratio 0.7000 (theta_max cap), 830.5µs\n\
            delta applied: version 3, 120/8192 sets regenerated (1.5% of pool, 4 chunks), 1.5s\n";
        let q = query_logs(log);
        assert_eq!(q.len(), 2);
        assert_eq!((q[0].pool_after, q[0].fresh, q[0].rounds), (4096, 8192, 5));
        assert!((q[0].ms - 45.25).abs() < 1e-9);
        assert!((q[1].ms - 0.8305).abs() < 1e-9);
        let d = delta_logs(log);
        assert_eq!((d[0].regenerated, d[0].pool_sets), (120, 8192));
        assert!((d[0].ms - 1500.0).abs() < 1e-9);
    }
}

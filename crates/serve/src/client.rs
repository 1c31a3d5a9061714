//! A minimal blocking HTTP/1.1 client for exercising the server.
//!
//! Used by the integration tests, the load-generator bench, the chaos
//! suite, and anyone poking a local `gced serve` from Rust without
//! external crates. Two flavors: the one-shot [`get`]/[`post`] helpers
//! send `Connection: close` and read to EOF, and [`Session`] holds one
//! persistent connection open across many exchanges (with
//! `Content-Length`-framed reads), including true pipelining — writing
//! several requests before reading the first response.
//!
//! [`Session::post_with_retry`] rides out server faults: 500s (a
//! panicked batch), 503 sheds, and torn connections are retried under a
//! seeded, jittered exponential backoff ([`RetryPolicy`]) that honors
//! the server's `Retry-After` hint. Retrying blindly is **safe by
//! construction** here: every distillation is deterministic and
//! idempotent, so a retried request can only ever produce the same
//! bytes.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A response: status code plus raw body bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes, exactly as served.
    pub body: Vec<u8>,
    /// True when the server will keep the connection open
    /// (`Connection: keep-alive`).
    pub keep_alive: bool,
    /// Parsed `Retry-After` header (seconds), present on shed (503)
    /// responses.
    pub retry_after: Option<u64>,
    /// Parsed `X-Gced-Request-Id` header — the server-assigned id a
    /// distill request can be looked up under at `/debug/requests/{id}`.
    pub request_id: Option<u64>,
    /// Parsed `X-Gced-Evidence-Id` header — the durable id a served
    /// distillation can be replayed under at `/v1/evidence/{id}`.
    pub evidence_id: Option<String>,
    /// Parsed `X-Gced-Cache` header (`"hit"` / `"miss"`), present on
    /// cache-probed distill responses.
    pub cache: Option<String>,
}

impl Response {
    /// Body as UTF-8 (servers here only speak JSON).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// `GET path` on a fresh connection (`Connection: close`).
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<Response> {
    exchange(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: gced\r\nConnection: close\r\n\r\n"),
    )
}

/// `POST path` with a JSON body on a fresh connection
/// (`Connection: close`).
pub fn post(addr: SocketAddr, path: &str, body: &str) -> std::io::Result<Response> {
    exchange(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: gced\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn exchange(addr: SocketAddr, raw: &str) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.write_all(raw.as_bytes())?;
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf)?;
    parse_response(&buf)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response"))
}

/// Split a `Connection: close` response into status and body.
fn parse_response(raw: &[u8]) -> Option<Response> {
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..head_end]).ok()?;
    let status_line = head.lines().next()?;
    let status = status_line.split(' ').nth(1)?.parse().ok()?;
    // The server always sends Content-Length; read-to-EOF already
    // collected exactly that many bytes (plus nothing — one exchange
    // per connection), so the slice after the blank line is the body.
    Some(Response {
        status,
        body: raw[head_end + 4..].to_vec(),
        keep_alive: header_keep_alive(head),
        retry_after: header_retry_after(head),
        request_id: header_u64(head, "x-gced-request-id"),
        evidence_id: header_string(head, "x-gced-evidence-id"),
        cache: header_string(head, "x-gced-cache"),
    })
}

fn header_keep_alive(head: &str) -> bool {
    head.lines().any(|l| {
        l.split_once(':').is_some_and(|(name, value)| {
            name.trim().eq_ignore_ascii_case("connection")
                && value.trim().eq_ignore_ascii_case("keep-alive")
        })
    })
}

fn header_retry_after(head: &str) -> Option<u64> {
    header_u64(head, "retry-after")
}

fn header_u64(head: &str, header: &str) -> Option<u64> {
    header_string(head, header).and_then(|v| v.parse().ok())
}

fn header_string(head: &str, header: &str) -> Option<String> {
    head.lines().find_map(|l| {
        let (name, value) = l.split_once(':')?;
        if name.trim().eq_ignore_ascii_case(header) {
            Some(value.trim().to_string())
        } else {
            None
        }
    })
}

/// Retry shape for [`Session::post_with_retry`]: seeded, jittered
/// exponential backoff with a budget. The attempt-`n` delay is
/// `min(cap, base·2ⁿ) · jitter` where jitter is drawn deterministically
/// from `seed` in `[0.5, 1.0)`, raised to the server's `Retry-After`
/// hint when one arrived (but never above `cap` — the cap is the
/// client's own bound on how long it is willing to stall).
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Retries after the first attempt (budget 0 = try once).
    pub budget: u32,
    /// First backoff delay.
    pub base: Duration,
    /// Largest backoff delay.
    pub cap: Duration,
    /// Jitter stream seed; equal seeds replay equal delays.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            budget: 5,
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
            seed: 0x6ced,
        }
    }
}

impl RetryPolicy {
    /// The deterministic delay before retry number `attempt` (0-based),
    /// honoring an optional `Retry-After` hint in seconds.
    pub fn delay(&self, attempt: u32, retry_after: Option<u64>) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32.checked_shl(attempt.min(16)).unwrap_or(u32::MAX))
            .min(self.cap);
        let jitter = 0.5 + 0.5 * unit(crate::splitmix64(self.seed ^ u64::from(attempt)));
        let jittered = exp.mul_f64(jitter);
        match retry_after {
            Some(secs) => jittered.max(Duration::from_secs(secs).min(self.cap)),
            None => jittered,
        }
    }
}

/// Map a u64 onto `[0, 1)`.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// One persistent connection to the server. Each call frames its read
/// by the response's `Content-Length`, so the socket stays usable for
/// the next exchange until the server answers `Connection: close`.
pub struct Session {
    addr: SocketAddr,
    timeout: Duration,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Session {
    /// Connect with a 60 s read timeout.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        Self::connect_with_timeout(addr, Duration::from_secs(60))
    }

    /// Connect with an explicit read timeout.
    pub fn connect_with_timeout(addr: SocketAddr, timeout: Duration) -> std::io::Result<Self> {
        let (reader, writer) = open(addr, timeout)?;
        Ok(Session {
            addr,
            timeout,
            reader,
            writer,
        })
    }

    /// Drop the current socket and dial a fresh one (same address and
    /// timeout). Used after a torn exchange: a desynchronized byte
    /// stream cannot be trusted for another framed read.
    pub fn reconnect(&mut self) -> std::io::Result<()> {
        let (reader, writer) = open(self.addr, self.timeout)?;
        self.reader = reader;
        self.writer = writer;
        Ok(())
    }

    /// `GET path`, keeping the connection open.
    pub fn get(&mut self, path: &str) -> std::io::Result<Response> {
        self.send_get(path)?;
        self.read_response()
    }

    /// `POST path` with a JSON body, keeping the connection open.
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<Response> {
        self.send_post(path, body)?;
        self.read_response()
    }

    /// `POST path`, retrying through server faults under `policy`:
    /// 500s (panicked batch / dead batcher — idempotence makes the
    /// retry safe), 503 sheds (waiting out `Retry-After`), and torn
    /// connections (reconnecting first). Returns the last outcome when
    /// the budget runs out.
    pub fn post_with_retry(
        &mut self,
        path: &str,
        body: &str,
        policy: &RetryPolicy,
    ) -> std::io::Result<Response> {
        let mut attempt = 0u32;
        loop {
            let outcome = self.post(path, body);
            let retriable = match &outcome {
                Ok(r) => r.status == 500 || r.status == 503,
                Err(_) => true,
            };
            if !retriable || attempt >= policy.budget {
                return outcome;
            }
            let hint = outcome.as_ref().ok().and_then(|r| r.retry_after);
            let reconnect = match &outcome {
                // A clean but final response (`Connection: close`) and
                // any I/O failure both need a fresh socket.
                Ok(r) => !r.keep_alive,
                Err(_) => true,
            };
            std::thread::sleep(policy.delay(attempt, hint));
            attempt += 1;
            if reconnect {
                loop {
                    match self.reconnect() {
                        Ok(()) => break,
                        // A refused dial burns budget like any other retry.
                        Err(e) if attempt >= policy.budget => return Err(e),
                        Err(_) => {
                            std::thread::sleep(policy.delay(attempt, None));
                            attempt += 1;
                        }
                    }
                }
            }
        }
    }

    /// Write a GET without reading the response (pipelining half).
    pub fn send_get(&mut self, path: &str) -> std::io::Result<()> {
        let raw = format!("GET {path} HTTP/1.1\r\nHost: gced\r\n\r\n");
        self.writer.write_all(raw.as_bytes())?;
        self.writer.flush()
    }

    /// Write a POST without reading the response (pipelining half).
    pub fn send_post(&mut self, path: &str, body: &str) -> std::io::Result<()> {
        let raw = format!(
            "POST {path} HTTP/1.1\r\nHost: gced\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer.write_all(raw.as_bytes())?;
        self.writer.flush()
    }

    /// Read one `Content-Length`-framed response (pipelining half).
    pub fn read_response(&mut self) -> std::io::Result<Response> {
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
        let mut head = String::new();
        let mut status: Option<u16> = None;
        let mut content_length: Option<usize> = None;
        loop {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed before a response head",
                ));
            }
            let trimmed = line.trim_end_matches(['\r', '\n']);
            if status.is_none() {
                // Interim 1xx responses (100 Continue) are skipped.
                let code: u16 = trimmed
                    .split(' ')
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| bad("malformed status line"))?;
                if (100..200).contains(&code) {
                    // Consume the interim head's terminating blank line.
                    let mut blank = String::new();
                    self.reader.read_line(&mut blank)?;
                    continue;
                }
                status = Some(code);
            } else if trimmed.is_empty() {
                break;
            } else if let Some((name, value)) = trimmed.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    content_length = Some(
                        value
                            .trim()
                            .parse()
                            .map_err(|_| bad("bad content-length"))?,
                    );
                }
            }
            head.push_str(trimmed);
            head.push('\n');
        }
        let len = content_length.ok_or_else(|| bad("response without content-length"))?;
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body)?;
        Ok(Response {
            status: status.expect("status parsed"),
            body,
            keep_alive: header_keep_alive(&head),
            retry_after: header_retry_after(&head),
            request_id: header_u64(&head, "x-gced-request-id"),
            evidence_id: header_string(&head, "x-gced-evidence-id"),
            cache: header_string(&head, "x-gced-cache"),
        })
    }
}

fn open(addr: SocketAddr, timeout: Duration) -> std::io::Result<(BufReader<TcpStream>, TcpStream)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((reader, stream))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_response() {
        let raw = b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 2\r\n\r\nhi";
        let r = parse_response(raw).unwrap();
        assert_eq!(r.status, 503);
        assert_eq!(r.body, b"hi");
        assert_eq!(r.text(), "hi");
        assert!(!r.keep_alive);
        assert_eq!(r.retry_after, None);
        let ka = b"HTTP/1.1 200 OK\r\nConnection: keep-alive\r\nContent-Length: 0\r\n\r\n";
        assert!(parse_response(ka).unwrap().keep_alive);
        let shed =
            b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 3\r\nContent-Length: 0\r\n\r\n";
        assert_eq!(parse_response(shed).unwrap().retry_after, Some(3));
        assert_eq!(parse_response(shed).unwrap().request_id, None);
        let tagged = b"HTTP/1.1 200 OK\r\nX-Gced-Request-Id: 42\r\nContent-Length: 0\r\n\r\n";
        assert_eq!(parse_response(tagged).unwrap().request_id, Some(42));
        assert_eq!(parse_response(tagged).unwrap().evidence_id, None);
        assert_eq!(parse_response(tagged).unwrap().cache, None);
        let cached = b"HTTP/1.1 200 OK\r\nX-Gced-Evidence-Id: 00ff\r\nX-Gced-Cache: hit\r\nContent-Length: 0\r\n\r\n";
        let r = parse_response(cached).unwrap();
        assert_eq!(r.evidence_id.as_deref(), Some("00ff"));
        assert_eq!(r.cache.as_deref(), Some("hit"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_response(b"not http").is_none());
        assert!(parse_response(b"HTTP/1.1 abc\r\n\r\n").is_none());
    }

    #[test]
    fn backoff_delays_are_deterministic_jittered_and_capped() {
        let policy = RetryPolicy {
            budget: 8,
            base: Duration::from_millis(100),
            cap: Duration::from_millis(800),
            seed: 7,
        };
        for attempt in 0..8 {
            let d = policy.delay(attempt, None);
            assert_eq!(d, policy.delay(attempt, None), "same seed, same delay");
            let exp = Duration::from_millis(100 * (1 << attempt)).min(policy.cap);
            assert!(d >= exp.mul_f64(0.5), "attempt {attempt}: {d:?} < half-exp");
            assert!(d <= exp, "attempt {attempt}: {d:?} > exp");
        }
        // A different seed draws different jitter somewhere.
        let other = RetryPolicy { seed: 8, ..policy };
        assert!((0..8).any(|a| other.delay(a, None) != policy.delay(a, None)));
        // A Retry-After hint raises the delay, but never beyond cap.
        assert!(policy.delay(0, Some(1)) >= Duration::from_millis(800));
        assert!(policy.delay(0, Some(3600)) <= Duration::from_millis(800));
    }
}

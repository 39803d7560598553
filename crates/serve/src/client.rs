//! A minimal synchronous client for the `cnd-serve` wire protocol,
//! used by the CLI `loadgen` subcommand and the integration tests.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use cnd_core::streaming::RetryPolicy;

use crate::protocol::{read_reply, write_request, FrameError, Reply, Request, ServerInfo};

/// Default client read timeout: far above any sane batch scoring time,
/// so hitting it means the server is gone, not slow.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Retry schedule for [`ServeClient::connect_with_retry`]: capped
/// exponential backoff with deterministic jitter, so a transient server
/// restart (e.g. a continual-serving canary swap bouncing a process)
/// does not fail clients and reconnect storms stay spread out.
///
/// The reused [`RetryPolicy`] is interpreted in **milliseconds**: the
/// delay before retry `n` is `backoff_base_flows · 2^(n−1)` ms, capped
/// at `max_backoff_flows` ms, then scaled by a jitter factor drawn
/// deterministically from `jitter_seed` in `[0.5, 1.0]`.
#[derive(Debug, Clone)]
pub struct ConnectRetry {
    /// Attempt count and backoff shape (field units become ms here).
    pub policy: RetryPolicy,
    /// Seed for the jitter sequence; vary per client so a fleet does
    /// not reconnect in lockstep.
    pub jitter_seed: u64,
}

impl Default for ConnectRetry {
    fn default() -> Self {
        ConnectRetry {
            policy: RetryPolicy {
                max_attempts: 5,
                backoff_base_flows: 50,
                max_backoff_flows: 2_000,
            },
            jitter_seed: 1,
        }
    }
}

impl ConnectRetry {
    /// The jittered delay to sleep before 1-based retry `n`.
    fn delay(&self, n: u32, jitter_state: &mut u64) -> Duration {
        let base = self.policy.backoff_flows(n) as u64;
        // xorshift64* step: cheap, deterministic, good enough to spread
        // reconnects; no RNG dependency needed.
        let mut x = *jitter_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *jitter_state = x;
        let unit = (x >> 11) as f64 / (1u64 << 53) as f64;
        let factor = 0.5 + 0.5 * unit;
        Duration::from_millis((base as f64 * factor).round() as u64)
    }
}

/// Errors a [`ServeClient`] call can produce.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, timeout).
    Io(io::Error),
    /// The server's reply frame could not be decoded.
    Protocol(String),
    /// The server replied, but with a different correlation id than the
    /// request carried — the stream is out of sync.
    IdMismatch {
        /// Id the request carried.
        sent: u64,
        /// Id the reply echoed.
        got: u64,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(reason) => write!(f, "protocol error: {reason}"),
            ClientError::IdMismatch { sent, got } => {
                write!(f, "reply id {got} does not match request id {sent}")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Protocol(e.to_string())
    }
}

/// A blocking connection to a `cnd-serve` instance. One request is in
/// flight at a time; ids are assigned sequentially and checked against
/// the echoed reply id.
#[derive(Debug)]
pub struct ServeClient {
    conn: TcpStream,
    next_id: u64,
}

impl ServeClient {
    /// Connects with `TCP_NODELAY` and a 10 s read timeout.
    ///
    /// # Errors
    ///
    /// Propagates connect/socket-option failures.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<ServeClient, ClientError> {
        let conn = TcpStream::connect(addr)?;
        conn.set_nodelay(true)?;
        conn.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(ServeClient { conn, next_id: 1 })
    }

    /// Like [`connect`](Self::connect), but retries transient failures
    /// with capped exponential backoff plus deterministic jitter
    /// (see [`ConnectRetry`]). At most `retry.policy.max_attempts`
    /// connects are tried (clamped to at least 1).
    ///
    /// # Errors
    ///
    /// The last attempt's error once the budget is exhausted.
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs,
        retry: &ConnectRetry,
    ) -> Result<ServeClient, ClientError> {
        let attempts = retry.policy.max_attempts.max(1);
        let mut jitter_state = retry.jitter_seed | 1;
        let mut failures = 0u32;
        loop {
            match Self::connect(&addr) {
                Ok(client) => return Ok(client),
                Err(e) => {
                    failures += 1;
                    if failures >= attempts {
                        return Err(e);
                    }
                    std::thread::sleep(retry.delay(failures, &mut jitter_state));
                }
            }
        }
    }

    fn round_trip(&mut self, make: impl FnOnce(u64) -> Request) -> Result<Reply, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let req = make(id);
        write_request(&mut self.conn, &req)?;
        let reply = read_reply(&mut self.conn)?;
        let got = reply_id(&reply);
        if got != id {
            return Err(ClientError::IdMismatch { sent: id, got });
        }
        Ok(reply)
    }

    /// Scores one flow-feature vector. The reply is whatever the server
    /// decided: `Score`, `Overloaded`, or `BadRequest`.
    ///
    /// # Errors
    ///
    /// Transport or framing failures; a typed error *reply* is an `Ok`.
    pub fn score(&mut self, features: &[f64]) -> Result<Reply, ClientError> {
        self.round_trip(|id| Request::Score {
            id,
            features: features.to_vec(),
        })
    }

    /// Asks the server to hot-swap its model from disk. Returns the new
    /// model version.
    ///
    /// # Errors
    ///
    /// [`ClientError::Protocol`] when the server refused the reload
    /// (the refusal reason is included), plus transport failures.
    pub fn reload(&mut self) -> Result<u32, ClientError> {
        match self.round_trip(|id| Request::Reload { id })? {
            Reply::ReloadOk { model_version, .. } => Ok(model_version),
            Reply::ReloadFailed { reason, .. } => {
                Err(ClientError::Protocol(format!("reload refused: {reason}")))
            }
            other => Err(ClientError::Protocol(format!(
                "unexpected reply to reload: {other:?}"
            ))),
        }
    }

    /// Fetches the server's model/counter snapshot.
    ///
    /// # Errors
    ///
    /// Transport/framing failures or an unexpected reply kind.
    pub fn info(&mut self) -> Result<ServerInfo, ClientError> {
        match self.round_trip(|id| Request::Info { id })? {
            Reply::Info { info, .. } => Ok(info),
            other => Err(ClientError::Protocol(format!(
                "unexpected reply to info: {other:?}"
            ))),
        }
    }
}

fn reply_id(reply: &Reply) -> u64 {
    match *reply {
        Reply::Score { id, .. }
        | Reply::BadRequest { id, .. }
        | Reply::Overloaded { id }
        | Reply::ReloadOk { id, .. }
        | Reply::ReloadFailed { id, .. }
        | Reply::Info { id, .. } => id,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Instant;

    #[test]
    fn retry_delays_are_capped_exponential_with_jitter_in_range() {
        let retry = ConnectRetry {
            policy: RetryPolicy {
                max_attempts: 10,
                backoff_base_flows: 100,
                max_backoff_flows: 400,
            },
            jitter_seed: 42,
        };
        let mut state = retry.jitter_seed | 1;
        for (n, full) in [(1u32, 100u64), (2, 200), (3, 400), (4, 400), (9, 400)] {
            let d = retry.delay(n, &mut state).as_millis() as u64;
            assert!(
                d >= full / 2 && d <= full,
                "retry {n}: delay {d}ms outside [{}, {full}]ms",
                full / 2
            );
        }
        // The jitter sequence must actually vary.
        let mut s1 = 7u64;
        let a = retry.delay(3, &mut s1);
        let b = retry.delay(3, &mut s1);
        assert_ne!(a, b, "consecutive jittered delays should differ");
    }

    #[test]
    fn connect_with_retry_gives_up_after_budget() {
        // Bind-then-drop gives a port that refuses connections.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        let retry = ConnectRetry {
            policy: RetryPolicy {
                max_attempts: 3,
                backoff_base_flows: 10,
                max_backoff_flows: 20,
            },
            jitter_seed: 9,
        };
        let start = Instant::now();
        let res = ServeClient::connect_with_retry(addr, &retry);
        assert!(matches!(res, Err(ClientError::Io(_))));
        // Two backoffs of >= 5ms and >= 10ms happened between the three
        // attempts.
        assert!(start.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn connect_with_retry_succeeds_once_listener_appears() {
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        let listener = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(120));
            TcpListener::bind(addr).expect("rebind")
        });
        let retry = ConnectRetry {
            policy: RetryPolicy {
                max_attempts: 30,
                backoff_base_flows: 40,
                max_backoff_flows: 80,
            },
            jitter_seed: 3,
        };
        let client = ServeClient::connect_with_retry(addr, &retry);
        assert!(
            client.is_ok(),
            "retry should outlast a 120ms server restart: {:?}",
            client.err()
        );
        drop(listener.join());
    }
}

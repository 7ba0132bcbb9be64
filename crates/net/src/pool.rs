//! [`ClientPool`] — the one cache of idle connections: a `pangead`'s
//! peers, the driver's workers, the manager's scrape targets and a
//! handle on the manager. Connections idle by the address they were
//! dialed at and are checked *out* while in use, so the pool lock is
//! never held across socket I/O. One rule covers a connection that went
//! stale while idle (its daemon restarted at the same address):
//!
//! * a one-shot call ([`ClientPool::call`]: one RPC, or a paged loop of
//!   them) that fails with an I/O error on a pooled connection is
//!   retried once on a fresh dial: a daemon always answers before it
//!   closes, and a response cut short fails as `Corruption`, so the
//!   request reached no live process;
//! * a stream ([`ClientPool::checkout`]: a pipelined push, which would
//!   learn of a dead peer only at an ack, with batches lost) pings a
//!   pooled connection first and dials afresh if the ping fails.
//!
//! Every checkout ends in one [`ClientPool::checkin`] or
//! [`ClientPool::discard`], so `pool.checkouts == pool.checkins +
//! pool.drops` holds whenever nothing is checked out.

use crate::client::PangeaClient;
use pangea_common::{FxHashMap, IoStats, PangeaError, Result};
use pangea_obs::{names, Registry};
use parking_lot::Mutex;
use std::sync::Arc;

/// Most distinct addresses a pool keeps an idle connection for.
const POOL_CAP: usize = 64;

/// Idle connections by address, counted as `pool.*` in a registry.
#[derive(Debug)]
pub struct ClientPool {
    idle: Mutex<FxHashMap<String, PangeaClient>>,
    secret: Option<String>,
    stats: Option<Arc<IoStats>>,
    /// Where `pool.*` is counted, and a stream's credit stalls beside it.
    pub(crate) reg: Arc<Registry>,
}

impl ClientPool {
    /// An empty pool whose dials present `secret` and charge the shared
    /// `stats` (when `None`, each connection keeps its own ledger).
    pub fn new(reg: Arc<Registry>, secret: Option<&str>, stats: Option<Arc<IoStats>>) -> Self {
        Self {
            idle: Mutex::default(),
            secret: secret.map(str::to_string),
            stats,
            reg,
        }
    }

    /// Connections idle in the pool.
    pub fn idle(&self) -> usize {
        self.idle.lock().len()
    }

    /// Runs the one-shot `f` on a connection to `addr`, seen as a `C`
    /// (the connection or a typed client over it), under the module's
    /// rule. The connection is checked in when `f` succeeds and
    /// discarded when it fails.
    pub fn call<C, T>(&self, addr: &str, mut f: impl FnMut(&mut C) -> Result<T>) -> Result<T>
    where
        C: From<PangeaClient>,
        PangeaClient: From<C>,
    {
        let (client, mut pooled) = self.take(addr)?;
        let mut conn = C::from(client);
        loop {
            let out = f(&mut conn);
            let client = PangeaClient::from(conn);
            match out {
                Err(PangeaError::Io(_)) if pooled => {
                    self.discard(client);
                    conn = C::from(self.dial(addr)?);
                    pooled = false;
                }
                Ok(_) => return out.inspect(|_| self.checkin(addr, client)),
                Err(_) => return out.inspect_err(|_| self.discard(client)),
            }
        }
    }

    /// Checks a connection to `addr` out for a stream: the pooled one
    /// when a ping proves it live, else a fresh dial.
    pub fn checkout(&self, addr: &str) -> Result<PangeaClient> {
        let (mut client, pooled) = self.take(addr)?;
        if pooled && client.ping().is_err() {
            self.discard(client);
            client = self.dial(addr)?;
        }
        Ok(client)
    }

    /// Returns an idle connection. The last one in wins an address's
    /// slot. At 64 addresses an arbitrary one is evicted: replaced or
    /// dead daemons are never checked out again, and an unbounded map
    /// would keep a dead socket per churned address forever.
    pub fn checkin(&self, addr: &str, mut client: PangeaClient) {
        // Unread pipelined responses would poison the next user.
        if client.pipelined() != 0 {
            return self.discard(client);
        }
        self.reg.counter(names::POOL_CHECKINS).inc();
        // No job's trace context outlives its checkout.
        client.set_trace(None);
        let mut idle = self.idle.lock();
        if idle.len() >= POOL_CAP && !idle.contains_key(addr) {
            if let Some(victim) = idle.keys().next().cloned() {
                idle.remove(&victim);
            }
            self.reg.counter(names::POOL_EVICTIONS).inc();
        }
        idle.insert(addr.to_string(), client);
    }

    /// Closes a checked-out connection whose RPC failed: its stream
    /// state is unknown.
    pub fn discard(&self, client: PangeaClient) {
        drop(client);
        self.reg.counter(names::POOL_DROPS).inc();
    }

    /// The idle connection to `addr` (`true`) or a fresh dial (`false`).
    fn take(&self, addr: &str) -> Result<(PangeaClient, bool)> {
        let pooled = self.idle.lock().remove(addr);
        let Some(client) = pooled else {
            return Ok((self.dial(addr)?, false));
        };
        self.reg.counter(names::POOL_CHECKOUTS).inc();
        self.reg.counter(names::POOL_HITS).inc();
        Ok((client, true))
    }

    /// A fresh connection, counted as a checkout only once it exists.
    /// An I/O failure stays an I/O error, naming the address.
    fn dial(&self, addr: &str) -> Result<PangeaClient> {
        self.reg.counter(names::POOL_DIALS).inc();
        let stats = self.stats.clone();
        let client = PangeaClient::connect_with(addr, self.secret.as_deref(), stats).map_err(
            |e| match e {
                PangeaError::Io(io) => {
                    let context = format!("dialing {addr}: {io}");
                    std::io::Error::new(io.kind(), context).into()
                }
                other => other,
            },
        )?;
        self.reg.counter(names::POOL_CHECKOUTS).inc();
        Ok(client)
    }
}

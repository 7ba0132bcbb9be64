//! The process fleet: one `pangea-mgr` and N `pangead` children on
//! loopback, found beside this executable, addressed by the `listening
//! on` line each prints. Every child is killed with SIGKILL and waited
//! for, and the fleet's data directory removed, when the [`Fleet`] is
//! dropped — which covers early returns and panics alike.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a daemon may take to print its `listening on` line.
const BOOT_TIMEOUT: Duration = Duration::from_secs(20);
/// Heartbeat period handed to every worker; with [`LIVENESS_MS`] it
/// bounds how long the `repair` workload waits for a kill to be seen.
pub const HEARTBEAT_MS: u64 = 50;
/// The manager's liveness timeout.
pub const LIVENESS_MS: u64 = 400;

/// The flags the benchmark sets; every other flag keeps the program's
/// default.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    pub workers: u32,
    pub pool_mb: usize,
    pub page_kb: usize,
    pub strategy: String,
    /// `pangea-mgr --scrape-ms`; `None` keeps the program default.
    pub scrape_ms: Option<u64>,
}

/// Every child this process has spawned and not yet reaped, so that the
/// phase watchdog can kill them from its own thread.
static LIVE_CHILDREN: Mutex<Vec<Weak<Mutex<Child>>>> = Mutex::new(Vec::new());

/// SIGKILLs every live child. Their owners still reap them; blocked
/// RPCs in the driver fail at once, which is how the watchdog unwedges
/// a phase.
pub fn kill_every_child() {
    let mut live = LIVE_CHILDREN.lock().unwrap_or_else(|e| e.into_inner());
    live.retain(|weak| match weak.upgrade() {
        Some(child) => {
            let _ = child.lock().unwrap_or_else(|e| e.into_inner()).kill();
            true
        }
        None => false,
    });
}

/// One spawned daemon: the child, its address, and the thread draining
/// its stdout (a daemon blocked on a full pipe would stall the run).
pub struct Daemon {
    child: Arc<Mutex<Child>>,
    pid: u32,
    pub addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Spawns `cmd` and waits for its `listening on <addr>` line and,
    /// when `ready` is given, for a later line containing it (a worker
    /// prints its address before it registers with the manager).
    fn spawn(mut cmd: Command, ready: Option<&'static str>, log: &Path) -> Result<Self, String> {
        let stderr = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot start {:?}: {e}", cmd.get_program()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let pid = child.id();
        let child = Arc::new(Mutex::new(child));
        LIVE_CHILDREN
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Arc::downgrade(&child));
        let (tx, rx) = std::sync::mpsc::channel();
        let drain = std::thread::spawn(move || {
            let mut tx = Some(tx);
            let mut addr = None;
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if addr.is_none() {
                    addr = parse_listening(&line);
                }
                let is_ready = ready.is_none_or(|marker| line.contains(marker));
                if let (Some(found), true, Some(sender)) = (&addr, is_ready, tx.as_ref()) {
                    let _ = sender.send(found.clone());
                    tx = None;
                }
            }
        });
        let mut daemon = Self {
            child,
            pid,
            addr: String::new(),
            drain: Some(drain),
        };
        match rx.recv_timeout(BOOT_TIMEOUT) {
            Ok(addr) => {
                daemon.addr = addr;
                Ok(daemon)
            }
            Err(_) => {
                daemon.kill();
                Err(format!(
                    "{:?} did not come up (see {})",
                    cmd.get_program(),
                    log.display()
                ))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// SIGKILL, then wait for the process and its stdout drain to end.
    /// The lock guards plain process handles, valid whatever a panicking
    /// holder was doing, so a poisoned lock is entered all the same:
    /// clean-up must not be skipped on the way out of a panic.
    pub fn kill(&mut self) {
        {
            let mut child = self.child.lock().unwrap_or_else(|e| e.into_inner());
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

/// The address in a daemon's `<name> listening on <addr> (...)` line.
pub fn parse_listening(line: &str) -> Option<String> {
    let rest = line.split_once("listening on ")?.1;
    let addr = rest.split_whitespace().next()?;
    addr.contains(':').then(|| addr.to_string())
}

static FLEET_SEQ: AtomicU64 = AtomicU64::new(0);

/// A running manager plus its workers, indexed by slot.
pub struct Fleet {
    pub config: FleetConfig,
    pub mgr: Daemon,
    pub workers: Vec<Daemon>,
    root: PathBuf,
    bin_dir: PathBuf,
    generation: u32,
}

impl Fleet {
    /// Boots the manager, then the workers one after another (slots are
    /// handed out in registration order), and returns once every worker
    /// has printed its address. Data and logs live under a fresh
    /// directory below `scratch`.
    pub fn boot(config: FleetConfig, scratch: &Path) -> Result<Self, String> {
        let bin_dir = std::env::current_exe()
            .map_err(|e| format!("current_exe: {e}"))?
            .parent()
            .expect("an executable has a parent directory")
            .to_path_buf();
        for bin in ["pangead", "pangea-mgr"] {
            if !bin_dir.join(bin).is_file() {
                return Err(format!(
                    "{} not found beside the benchmark; build it with \
                     `cargo build --release -p pangea-coord --bins`",
                    bin_dir.join(bin).display()
                ));
            }
        }
        let root = scratch.join(format!(
            "fleet-{}-{}",
            std::process::id(),
            FLEET_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        let mut mgr_cmd = Command::new(bin_dir.join("pangea-mgr"));
        mgr_cmd
            .args(["--listen", "127.0.0.1:0"])
            .args(["--liveness-ms", &LIVENESS_MS.to_string()]);
        if let Some(ms) = config.scrape_ms {
            mgr_cmd.args(["--scrape-ms", &ms.to_string()]);
        }
        let mgr = match Daemon::spawn(mgr_cmd, None, &root.join("mgr.log")) {
            Ok(mgr) => mgr,
            Err(e) => {
                let _ = std::fs::remove_dir_all(&root);
                return Err(e);
            }
        };
        let mut fleet = Self {
            config,
            mgr,
            workers: Vec::new(),
            root,
            bin_dir,
            generation: 0,
        };
        for slot in 0..fleet.config.workers {
            let worker = fleet.spawn_worker(slot)?;
            fleet.workers.push(worker);
        }
        Ok(fleet)
    }

    /// Every worker pins its `--slot`, first boot included: a daemon
    /// prints its address before it registers, so registration order
    /// alone would not fix which slot it gets.
    fn spawn_worker(&mut self, slot: u32) -> Result<Daemon, String> {
        self.generation += 1;
        let tag = format!("w{slot}-g{}", self.generation);
        let data = self.root.join(&tag);
        let mut cmd = Command::new(self.bin_dir.join("pangead"));
        cmd.args(["--listen", "127.0.0.1:0"])
            .arg("--data")
            .arg(&data)
            .args(["--pool-mb", &self.config.pool_mb.to_string()])
            .args(["--page-kb", &self.config.page_kb.to_string()])
            .args(["--strategy", &self.config.strategy])
            .args(["--manager", &self.mgr.addr])
            .args(["--slot", &slot.to_string()])
            .args(["--heartbeat-ms", &HEARTBEAT_MS.to_string()]);
        Daemon::spawn(
            cmd,
            Some("registered with pangea-mgr"),
            &self.root.join(format!("{tag}.log")),
        )
    }

    /// SIGKILLs the worker in `slot` (its data directory stays behind,
    /// unread, until the fleet is dropped).
    pub fn kill_worker(&mut self, slot: usize) {
        self.workers[slot].kill();
    }

    /// Starts a replacement for a killed worker, pinned to its slot and
    /// given an empty data directory.
    pub fn replace_worker(&mut self, slot: usize) -> Result<(), String> {
        self.workers[slot] = self.spawn_worker(slot as u32)?;
        Ok(())
    }

    /// SIGKILLs and reaps every daemon.
    pub fn kill_all(&mut self) {
        for w in &mut self.workers {
            w.kill();
        }
        self.mgr.kill();
    }

    /// Pids of the workers (current incarnations) and the manager.
    pub fn pids(&self) -> (Vec<u32>, u32) {
        (
            self.workers.iter().map(Daemon::pid).collect(),
            self.mgr.pid(),
        )
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.kill_all();
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// One busy loop per core at the lowest priority (`nice -n 19`), for as
/// long as the value lives.
///
/// The sandbox's virtual cores sleep when idle and take long, and
/// unevenly long, to wake. A closed loop of small RPCs (the loader, a
/// scan, a daemon's boot) then times the hypervisor's wake-ups and not
/// the program: with the cores kept awake, a 1M-line load took 0.56 to
/// 0.68 s over six runs, without 0.96 to 1.40 s (README, "Sizing data").
/// The loops yield to any other process at once and their CPU time is
/// in no metric.
pub struct KeepAwake {
    spinners: Vec<Child>,
}

impl KeepAwake {
    /// Starts the loops: this executable again, as `--spin`, under
    /// `nice`. Without `nice` the run goes on with the cores left alone.
    pub fn start() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let spinners = std::env::current_exe()
            .and_then(|exe| {
                (0..cores)
                    .map(|_| {
                        Command::new("nice")
                            .args(["-n", "19"])
                            .arg(&exe)
                            .arg("--spin")
                            .stdin(Stdio::piped())
                            .stdout(Stdio::null())
                            .stderr(Stdio::null())
                            .spawn()
                    })
                    .collect::<std::io::Result<Vec<Child>>>()
            })
            .unwrap_or_else(|e| {
                eprintln!("cannot keep the cores awake: {e}");
                Vec::new()
            });
        Self { spinners }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        for child in &mut self.spinners {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// What `--spin` runs: a busy loop that ends when standard input does,
/// which is when the benchmark that started it has gone, however it
/// went.
pub fn spin_until_stdin_closes() -> ! {
    // Plain arithmetic, not `spin_loop`: a hypervisor takes a core that
    // spins on PAUSE for one waiting on a lock, and takes it away.
    std::thread::spawn(|| {
        let mut turns = 0u64;
        loop {
            turns = std::hint::black_box(turns.wrapping_add(1));
        }
    });
    let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
    std::process::exit(0)
}

/// Polls `ready` every 10 ms until it holds or `timeout` passes.
pub fn wait_until(
    timeout: Duration,
    mut ready: impl FnMut() -> Result<bool, String>,
) -> Result<Duration, String> {
    let t0 = Instant::now();
    loop {
        if ready()? {
            return Ok(t0.elapsed());
        }
        if t0.elapsed() > timeout {
            return Err(format!("condition not met within {timeout:?}"));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[cfg(test)]
mod tests {
    use super::parse_listening;

    #[test]
    fn listening_line_yields_the_address() {
        assert_eq!(
            parse_listening("pangead listening on 127.0.0.1:4312 (data: /x, pool: 64 MB)"),
            Some("127.0.0.1:4312".to_string())
        );
        assert_eq!(
            parse_listening("pangea-mgr listening on 127.0.0.1:9 (liveness timeout: 400 ms)"),
            Some("127.0.0.1:9".to_string())
        );
        assert_eq!(parse_listening("registered with pangea-mgr"), None);
        assert_eq!(parse_listening("listening on nowhere"), None);
    }
}

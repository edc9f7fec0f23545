//! Lifecycle of a `scorpio_serve` daemon under test: spawn on an
//! ephemeral port, a watchdog that enforces the per-request deadline,
//! and a kill on every exit path so no orphan outlives the run.

use std::io::{self, BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use scorpio_serve::Client;

/// The flags the daemon runs with: its defaults, on an ephemeral port.
pub const DAEMON_ARGS: [&str; 2] = ["--addr", "127.0.0.1:0"];

/// How long the daemon may take to print its listening address.
const STARTUP_DEADLINE: Duration = Duration::from_secs(20);
/// How long a clean shutdown may take before the daemon is killed.
const SHUTDOWN_DEADLINE: Duration = Duration::from_secs(20);
/// Watchdog polling period.
const WATCH_PERIOD: Duration = Duration::from_millis(20);

/// A running daemon. Dropping it kills the process if it is still
/// running and joins every helper thread.
#[derive(Debug)]
pub struct Daemon {
    child: Arc<Mutex<Child>>,
    /// The address the daemon printed.
    pub addr: String,
    /// Its process id, for `/proc` reads.
    pub pid: u32,
    stdout: Option<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    /// Nanoseconds since `origin` at which the request in flight was
    /// sent, plus one; 0 when idle.
    inflight: Arc<AtomicU64>,
    origin: Instant,
    expired: Arc<AtomicBool>,
}

fn lock(child: &Mutex<Child>) -> std::sync::MutexGuard<'_, Child> {
    // A poisoned lock only means another thread panicked while holding
    // it; the Child handle itself stays usable for kill/wait.
    child
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Daemon {
    /// Spawns `bin` with [`DAEMON_ARGS`] in `work_dir` (where it writes
    /// its shutdown manifest) and waits for its listening address.
    /// Requests running longer than `deadline` get the daemon killed,
    /// which fails them on the client side instead of hanging the run.
    ///
    /// # Errors
    ///
    /// Spawn failures, or a daemon that does not announce an address in
    /// time (it is killed first).
    pub fn spawn(bin: &Path, work_dir: &Path, deadline: Duration) -> io::Result<Daemon> {
        let mut child = Command::new(bin)
            .args(DAEMON_ARGS)
            .current_dir(work_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let pid = child.id();
        let stdout = child.stdout.take().expect("stdout was piped");
        let child = Arc::new(Mutex::new(child));
        let (tx, rx) = mpsc::channel();
        // Drains the daemon's stdout for its whole life so a chatty
        // shutdown summary can never block it on a full pipe.
        let reader = thread::spawn(move || {
            let mut first = true;
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if first {
                    first = false;
                    let _ = tx.send(line);
                }
            }
        });
        let stop = Arc::new(AtomicBool::new(false));
        let inflight = Arc::new(AtomicU64::new(0));
        let expired = Arc::new(AtomicBool::new(false));
        let origin = Instant::now();
        let watchdog = {
            let (child, stop, inflight, expired) = (
                Arc::clone(&child),
                Arc::clone(&stop),
                Arc::clone(&inflight),
                Arc::clone(&expired),
            );
            let deadline_ns = deadline.as_nanos() as u64;
            thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let since = inflight.load(Ordering::SeqCst);
                    let now = origin.elapsed().as_nanos() as u64 + 1;
                    if since != 0 && now.saturating_sub(since) > deadline_ns {
                        expired.store(true, Ordering::SeqCst);
                        let _ = lock(&child).kill();
                        return;
                    }
                    thread::sleep(WATCH_PERIOD);
                }
            })
        };
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            pid,
            stdout: Some(reader),
            watchdog: Some(watchdog),
            stop,
            inflight,
            origin,
            expired,
        };
        let banner = rx.recv_timeout(STARTUP_DEADLINE).map_err(|_| {
            io::Error::new(
                io::ErrorKind::TimedOut,
                "daemon printed no listening address",
            )
        })?;
        daemon.addr = parse_banner(&banner).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected banner: {banner}"),
            )
        })?;
        Ok(daemon)
    }

    /// Connects a client to the daemon.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(&self) -> io::Result<Client> {
        Client::connect(self.addr.as_str())
    }

    /// Marks a request as sent: the watchdog starts its deadline.
    pub fn begin(&self) {
        let now = self.origin.elapsed().as_nanos() as u64 + 1;
        self.inflight.store(now, Ordering::SeqCst);
    }

    /// Marks the request in flight as answered.
    pub fn end(&self) {
        self.inflight.store(0, Ordering::SeqCst);
    }

    /// `true` once the watchdog has killed the daemon over a deadline.
    pub fn expired(&self) -> bool {
        self.expired.load(Ordering::SeqCst)
    }

    /// Asks the daemon to shut down over `client` and waits for it to
    /// exit, killing it if it does not exit in time.
    ///
    /// # Errors
    ///
    /// A failed shutdown request or a daemon that had to be killed.
    pub fn shutdown(mut self, client: &mut Client) -> io::Result<()> {
        let reply = client.shutdown();
        let deadline = Instant::now() + SHUTDOWN_DEADLINE;
        loop {
            let exited = lock(&self.child).try_wait()?;
            if let Some(status) = exited {
                self.join_helpers();
                reply?;
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("daemon exited with {status}")))
                };
            }
            if Instant::now() > deadline {
                self.kill();
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "daemon ignored shutdown",
                ));
            }
            thread::sleep(Duration::from_millis(5));
        }
    }

    fn kill(&mut self) {
        {
            let mut child = lock(&self.child);
            if matches!(child.try_wait(), Ok(None)) {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
        self.join_helpers();
    }

    fn join_helpers(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(w) = self.watchdog.take() {
            let _ = w.join();
        }
        if let Some(r) = self.stdout.take() {
            let _ = r.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Extracts `host:port` from `scorpio_serve listening on HOST:PORT (…)`.
pub fn parse_banner(line: &str) -> Option<String> {
    let rest = line.strip_prefix("scorpio_serve listening on ")?;
    let addr = rest.split_whitespace().next()?;
    addr.contains(':').then(|| addr.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banner_parses() {
        assert_eq!(
            parse_banner("scorpio_serve listening on 127.0.0.1:40123 (2 workers, cache capacity 64, manifest)"),
            Some("127.0.0.1:40123".to_string())
        );
        assert_eq!(parse_banner("metrics sidecar on x"), None);
        assert_eq!(parse_banner("scorpio_serve listening on nowhere"), None);
    }
}

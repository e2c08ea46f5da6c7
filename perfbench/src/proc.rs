//! Building and supervising the program under test: the `abccc-cli`
//! binary, its child processes, and the benchmark's scratch directory.
//!
//! Hygiene rules: every child is registered while it lives and killed
//! and reaped on every exit path (drop, failed check, watchdog); scratch
//! space lives under `.bench_tmp/` in the checkout and is removed when
//! the run ends; servers bind ephemeral ports only.

use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The checkout root: the directory holding the workspace `Cargo.toml`.
pub fn checkout_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the checkout")
        .to_path_buf()
}

/// Builds `abccc-cli` in release mode from the checkout's sources, the
/// way a user installs it, and returns the binary's path. A no-op when
/// the build is fresh.
pub fn build_cli(root: &Path) -> Result<PathBuf, String> {
    let status = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .current_dir(root)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "abccc-cli",
            "--manifest-path",
        ])
        .arg(root.join("Cargo.toml"))
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building abccc-cli failed ({status})"));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    };
    let bin = target.join("release").join("abccc-cli");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} missing after the build", bin.display()))
    }
}

/// Pids of children that are still running, for the watchdog.
static LIVE: Mutex<Vec<u32>> = Mutex::new(Vec::new());

fn register(pid: u32) {
    LIVE.lock().expect("child registry").push(pid);
}

fn unregister(pid: u32) {
    LIVE.lock().expect("child registry").retain(|&p| p != pid);
}

/// Kills the whole run if it overstays `limit`: registered children are
/// killed first, then the process exits non-zero without a result line.
pub fn arm_watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        let pids = LIVE.lock().map(|v| v.clone()).unwrap_or_default();
        for pid in pids {
            let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
        }
        eprintln!("perfbench: watchdog fired after {limit:?}; aborting");
        std::process::exit(3);
    });
}

/// A child process that is killed and reaped when dropped.
pub struct Guarded {
    child: Child,
    done: bool,
}

impl Guarded {
    pub fn spawn(cmd: &mut Command) -> Result<Guarded, String> {
        let child = cmd.spawn().map_err(|e| format!("spawn: {e}"))?;
        register(child.id());
        Ok(Guarded { child, done: false })
    }

    pub fn id(&self) -> u32 {
        self.child.id()
    }

    pub fn child(&mut self) -> &mut Child {
        &mut self.child
    }

    /// Waits for a normal exit and returns whether it succeeded.
    pub fn wait(&mut self) -> Result<bool, String> {
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        self.done = true;
        unregister(self.child.id());
        Ok(status.success())
    }
}

impl Drop for Guarded {
    fn drop(&mut self) {
        if !self.done {
            let _ = self.child.kill();
            let _ = self.child.wait();
            unregister(self.child.id());
        }
    }
}

/// Runs a finished-by-itself child (a sweep) to completion; returns its
/// wall time from exec to exit, whether it succeeded, and its stderr.
pub fn run_timed(cmd: &mut Command) -> Result<(Duration, bool, String), String> {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    let t0 = Instant::now();
    let mut g = Guarded::spawn(cmd)?;
    let mut err = String::new();
    if let Some(mut e) = g.child().stderr.take() {
        std::io::Read::read_to_string(&mut e, &mut err).map_err(|e| format!("stderr: {e}"))?;
    }
    let ok = g.wait()?;
    Ok((t0.elapsed(), ok, err))
}

/// A running `abccc-cli serve` process.
pub struct ServerProc {
    proc: Guarded,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    /// Time from exec to the `listening on` banner.
    pub ready: Duration,
}

impl ServerProc {
    /// Starts `abccc-cli serve <args>` and waits for its banner.
    pub fn start(bin: &Path, args: &[String]) -> Result<ServerProc, String> {
        let t0 = Instant::now();
        let mut proc = Guarded::spawn(
            Command::new(bin)
                .arg("serve")
                .args(args)
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit()),
        )?;
        let stdin = proc.child().stdin.take();
        let mut stdout = BufReader::new(proc.child().stdout.take().expect("piped stdout"));
        let mut banner = String::new();
        stdout
            .read_line(&mut banner)
            .map_err(|e| format!("reading the serve banner: {e}"))?;
        let ready = t0.elapsed();
        crate::spans::record("abccc-cli serve: exec to banner", u64::from(proc.id()), t0);
        let addr = banner
            .strip_prefix("listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected serve banner {banner:?}"))?;
        Ok(ServerProc {
            proc,
            stdin,
            stdout,
            addr,
            ready,
        })
    }

    /// The server's peak resident set (`VmHWM`) in bytes.
    pub fn peak_rss_bytes(&self) -> Option<u64> {
        vm_hwm_bytes(self.proc.id())
    }

    /// Closes stdin — the server's stop signal — waits for the exit, and
    /// returns its final stdout line (the drain report).
    pub fn drain(mut self) -> Result<String, String> {
        if let Some(mut stdin) = self.stdin.take() {
            let _ = stdin.flush();
        }
        let mut last = String::new();
        let mut line = String::new();
        while self
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading serve output: {e}"))?
            > 0
        {
            last = line.trim_end().to_string();
            line.clear();
        }
        if !self.proc.wait()? {
            return Err(format!("serve exited with failure after {last:?}"));
        }
        Ok(last)
    }
}

/// `VmHWM` of a live process, from `/proc/<pid>/status`.
pub fn vm_hwm_bytes(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// A scratch directory under `<root>/.bench_tmp/`, removed on drop.
/// Directories left by runs whose process no longer exists are removed
/// when a new one is made.
pub struct Scratch {
    pub path: PathBuf,
}

impl Scratch {
    pub fn new(root: &Path, tag: &str) -> Result<Scratch, String> {
        let base = root.join(".bench_tmp");
        if let Ok(entries) = std::fs::read_dir(&base) {
            for e in entries.flatten() {
                let name = e.file_name().to_string_lossy().into_owned();
                let pid = name.split('-').next().unwrap_or("");
                if !Path::new("/proc").join(pid).exists() {
                    let _ = std::fs::remove_dir_all(e.path());
                }
            }
        }
        let path = base.join(format!("{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Scratch { path })
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Some(base) = self.path.parent() {
            // Succeeds only when no other run is using the base.
            let _ = std::fs::remove_dir(base);
        }
    }
}

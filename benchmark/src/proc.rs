//! Child processes: timed CLI invocations with peak RSS, and the
//! kill-on-drop guard around the daemon.

use std::fs::File;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen longs
/// of which the first is `ru_maxrss` in KiB.
#[repr(C)]
struct Rusage {
    ru_utime: [i64; 2],
    ru_stime: [i64; 2],
    ru_maxrss: i64,
    rest: [i64; 13],
}

// Declared locally instead of pulling in a libc dependency, like the
// CLI's `signal` shim.
extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Waits for `pid` and returns its exit status and resource usage.
fn wait_with_rusage(pid: u32) -> std::io::Result<(ExitStatus, Rusage)> {
    let mut status = 0i32;
    let mut usage = Rusage {
        ru_utime: [0; 2],
        ru_stime: [0; 2],
        ru_maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are valid for writes for the whole
        // call, `Rusage` has the kernel's layout for this platform, and
        // `pid` is a child this process spawned and has not reaped yet.
        let got = unsafe { wait4(pid as i32, &mut status, 0, &mut usage) };
        if got == pid as i32 {
            return Ok((ExitStatus::from_raw(status), usage));
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// What one finished CLI invocation looked like from outside.
#[derive(Debug)]
pub struct Finished {
    /// Exit code; `None` when a signal killed the process.
    pub code: Option<i32>,
    /// Wall clock from just before `spawn` to `wait` returning.
    pub wall: Duration,
    /// Peak resident set size of the child, in MiB.
    pub max_rss_mib: f64,
    pub stdout: Vec<u8>,
    pub stderr: String,
}

impl Finished {
    /// The last stderr line — the CLI's `» …` summary or its error.
    pub fn summary(&self) -> &str {
        self.stderr.lines().last().unwrap_or("")
    }
}

/// Hidden subcommand the harness re-executes itself with to launch a
/// timed child.
///
/// A child's `ru_maxrss` starts from the resident set of the image that
/// spawned it, so a child launched straight from the harness — which
/// holds corpora and reference outputs — would report the harness's
/// memory, not its own. The launcher is a fresh image of a few MiB that
/// does nothing but spawn, `wait4` and report, so the program's own peak
/// shows. It also takes the wall clock itself, spawn to wait, so the
/// timed interval holds no harness work.
pub const LAUNCHER: &str = "exec-timed";

/// The launcher: `exec-timed REPORT STDOUT STDERR PROGRAM ARGS…`. Writes
/// `wall_ns maxrss_kib raw_status` to `REPORT`.
pub fn launcher_main(args: &[String]) -> std::io::Result<()> {
    let [report, stdout, stderr, program, rest @ ..] = args else {
        return Err(std::io::Error::other("exec-timed: too few arguments"));
    };
    let mut cmd = Command::new(program);
    cmd.args(rest)
        .stdin(Stdio::null())
        .stdout(File::create(stdout)?)
        .stderr(File::create(stderr)?);
    let start = Instant::now();
    let child = cmd.spawn()?;
    let (status, usage) = wait_with_rusage(child.id())?;
    let wall = start.elapsed();
    // The child is reaped; dropping the handle neither waits nor kills.
    drop(child);
    std::fs::write(
        report,
        format!(
            "{} {} {}\n",
            wall.as_nanos(),
            usage.ru_maxrss,
            status.into_raw()
        ),
    )
}

/// Runs `cmd` to completion through the [launcher](LAUNCHER), with
/// stdout/stderr captured in files under `scratch` (files, not pipes, so
/// a chatty child never blocks on a reader).
pub fn run_timed(cmd: &mut Command, scratch: &Path) -> std::io::Result<Finished> {
    let report_path = scratch.join("child.report");
    let out_path = scratch.join("child.stdout");
    let err_path = scratch.join("child.stderr");
    let mut launcher = Command::new(std::env::current_exe()?);
    launcher
        .arg(LAUNCHER)
        .args([&report_path, &out_path, &err_path])
        .arg(cmd.get_program())
        .args(cmd.get_args())
        .stdin(Stdio::null());
    for (key, value) in cmd.get_envs() {
        match value {
            Some(value) => launcher.env(key, value),
            None => launcher.env_remove(key),
        };
    }
    let status = launcher.status()?;
    if !status.success() {
        return Err(std::io::Error::other(format!("launcher failed: {status}")));
    }
    let report = std::fs::read_to_string(&report_path)?;
    let mut fields = report.split_whitespace().map(str::parse::<i64>);
    let (Some(Ok(wall_ns)), Some(Ok(maxrss_kib)), Some(Ok(raw))) =
        (fields.next(), fields.next(), fields.next())
    else {
        return Err(std::io::Error::other(format!(
            "bad launcher report {report:?}"
        )));
    };
    Ok(Finished {
        code: ExitStatus::from_raw(raw as i32).code(),
        wall: Duration::from_nanos(wall_ns as u64),
        max_rss_mib: maxrss_kib as f64 / 1024.0,
        stdout: std::fs::read(&out_path)?,
        stderr: String::from_utf8_lossy(&std::fs::read(&err_path)?).into_owned(),
    })
}

// ---------------------------------------------------------------------------
// CPU placement for daemon load
// ---------------------------------------------------------------------------

/// A `cpu_set_t`: 1024 bits.
type CpuMask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

fn current_mask() -> Option<CpuMask> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is valid for writes of the size passed; pid 0 names
    // the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

fn set_mask(mask: &CpuMask) -> bool {
    // SAFETY: `mask` is valid for reads of the size passed; pid 0 names
    // the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) == 0 }
}

fn mask_of(cpus: &[usize]) -> CpuMask {
    let mut mask: CpuMask = [0; 16];
    for cpu in cpus {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    mask
}

/// Which CPUs the load generator and the daemon run on: the daemon gets
/// the last CPU this process may use, the generator threads the others,
/// so neither preempts the other and the latency tail is the daemon's,
/// not the scheduler's. `None` when fewer than two CPUs are usable — the
/// load then runs unpinned.
#[derive(Debug, Clone)]
pub struct Placement {
    generator: Vec<usize>,
    daemon: usize,
}

impl Placement {
    pub fn detect() -> Option<Placement> {
        let mask = current_mask()?;
        let mut cpus: Vec<usize> = (0..1024)
            .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        let daemon = cpus.pop()?;
        (!cpus.is_empty()).then_some(Placement {
            generator: cpus,
            daemon,
        })
    }

    /// Pins the calling (generator) thread.
    pub fn pin_generator(&self) {
        set_mask(&mask_of(&self.generator));
    }
}

/// Lowers the calling thread's timer slack from the default 50 µs to
/// 1 µs, so an open-loop generator's sleeps end on schedule without
/// spinning a CPU the daemon's connection threads could use.
pub fn tighten_timer_slack() {
    extern "C" {
        fn prctl(option: i32, arg2: usize, arg3: usize, arg4: usize, arg5: usize) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument (nanoseconds)
    // and affects only the calling thread; the rest are ignored.
    unsafe { prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0) };
}

/// A running `jsonx serve`. Dropping it kills and reaps the process, so
/// a failed check can never leave a daemon behind.
pub struct Daemon {
    child: Option<Child>,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Starts `jsonx serve` with `args` plus `--listen 127.0.0.1:0` and
    /// waits for its `listening on ADDR` line.
    pub fn start(
        jsonx: &Path,
        args: &[&str],
        placement: Option<&Placement>,
    ) -> std::io::Result<Daemon> {
        // A child inherits the spawning thread's CPU mask: narrow it to
        // the daemon's CPU for the spawn, then widen it again.
        let before = placement.and_then(|_| current_mask());
        if let Some(placement) = placement {
            set_mask(&mask_of(&[placement.daemon]));
        }
        let spawned = Command::new(jsonx)
            .arg("serve")
            .args(["--listen", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn();
        if let Some(before) = before {
            set_mask(&before);
        }
        let mut child = spawned?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = read.ok().and_then(|_| {
            line.trim()
                .strip_prefix("listening on ")
                .and_then(|a| a.parse().ok())
        });
        match addr {
            Some(addr) => Ok(Daemon {
                child: Some(child),
                addr,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(std::io::Error::other(format!(
                    "daemon did not report its address (got {line:?})"
                )))
            }
        }
    }

    /// Waits for the daemon to exit after a `SHUTDOWN` verb and returns
    /// its exit status and stderr (the final report line). Kills it if it
    /// has not exited within `limit`.
    pub fn finish(mut self, limit: Duration) -> std::io::Result<(ExitStatus, String)> {
        let mut child = self.child.take().expect("finish consumes the daemon once");
        let deadline = Instant::now() + limit;
        let status = loop {
            if let Some(status) = child.try_wait()? {
                break status;
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                break child.wait()?;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        let mut stderr = String::new();
        if let Some(mut pipe) = child.stderr.take() {
            pipe.read_to_string(&mut stderr)?;
        }
        Ok((status, stderr))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(child) = &mut self.child {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Builds `target/release/jsonx` from the repository this harness was
/// compiled in and returns the executable's path as cargo reports it
/// (so any `CARGO_TARGET_DIR` works) together with the build's wall time.
pub fn build_jsonx() -> Result<(PathBuf, Duration), String> {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .ok_or("benchmark/ has no parent directory")?;
    if !repo.join("Cargo.toml").is_file() {
        return Err(format!(
            "{} holds no Cargo.toml: the benchmark builds jsonx from the repository around it",
            repo.display()
        ));
    }
    let start = Instant::now();
    let out = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args(["build", "--release", "--offline", "--bin", "jsonx"])
        .arg("--message-format=json")
        .current_dir(repo)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("cargo build of jsonx failed ({})", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let exe = stdout
        .lines()
        .filter(|l| l.contains("\"executable\":\""))
        .filter_map(|l| jsonx::syntax::parse(l).ok())
        .find(|m| {
            m.get("target")
                .and_then(|t| t.get("name"))
                .and_then(|n| n.as_str())
                == Some("jsonx")
        })
        .and_then(|m| m.get("executable")?.as_str().map(PathBuf::from))
        .ok_or("cargo did not report the jsonx executable")?;
    // A relative CARGO_TARGET_DIR is reported relative to cargo's cwd.
    let exe = if exe.is_absolute() {
        exe
    } else {
        repo.join(exe)
    };
    Ok((exe, start.elapsed()))
}

//! The shipped `mbts serve` binary as a child process.

use std::io::{self, BufRead, BufReader};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use mbts_serve::http;

/// Site and journal flags of one daemon.
pub struct DaemonConfig<'a> {
    pub bin: &'a Path,
    pub journal: &'a Path,
    pub time_scale: f64,
}

/// A running daemon. Dropping it kills the process if it is still up.
pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Daemon {
    /// Starts the daemon and waits until `/readyz` answers 200; returns it
    /// with the time that took.
    pub fn start(cfg: &DaemonConfig) -> io::Result<(Daemon, Duration)> {
        let t0 = Instant::now();
        let mut child = Command::new(cfg.bin)
            .args(["serve", "--addr", "127.0.0.1:0", "--processors", "16"])
            .args([
                "--policy",
                "first-reward:0.3:0.01",
                "--admission",
                "slack:180",
            ])
            .args(["--snapshot-every", "8192", "--fsync-every", "0"])
            .arg("--time-scale")
            .arg(cfg.time_scale.to_string())
            .arg("--journal")
            .arg(cfg.journal)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        stdout.read_line(&mut banner)?;
        let Some(addr) = banner.trim().strip_prefix("mbts serve listening on ") else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!("unexpected banner {banner:?}")));
        };
        let mut daemon = Daemon {
            addr: addr.to_string(),
            child,
            stdout,
        };
        loop {
            if matches!(daemon.get("/readyz"), Ok((200, _))) {
                return Ok((daemon, t0.elapsed()));
            }
            if t0.elapsed() > Duration::from_secs(60) {
                return Err(io::Error::other("daemon never became ready"));
            }
            if let Some(status) = daemon.child.try_wait()? {
                return Err(io::Error::other(format!("daemon exited early: {status}")));
            }
            thread::sleep(Duration::from_millis(1));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// One request on a fresh connection; returns status and body.
    pub fn get(&self, target: &str) -> io::Result<(u16, Vec<u8>)> {
        self.request(|w| http::write_get(w, target))
    }

    fn request(
        &self,
        write: impl FnOnce(&mut TcpStream) -> io::Result<()>,
    ) -> io::Result<(u16, Vec<u8>)> {
        let mut s = TcpStream::connect(&self.addr)?;
        s.set_read_timeout(Some(Duration::from_secs(30)))?;
        write(&mut s)?;
        let mut r = BufReader::new(s);
        let resp = http::read_response(&mut r)?
            .ok_or_else(|| io::Error::other("connection closed without a reply"))?;
        Ok((resp.status, resp.body))
    }

    /// Drains the daemon (`POST /drain`) and waits for it to exit; returns
    /// whether it exited with status 0.
    pub fn drain(mut self) -> io::Result<bool> {
        let (status, _) = self.request(|w| http::write_post(w, "/drain", b""))?;
        if status != 200 {
            return Err(io::Error::other(format!("/drain answered {status}")));
        }
        // Read the final report so the daemon never blocks on a full pipe.
        io::copy(&mut self.stdout, &mut io::sink())?;
        Ok(self.child.wait()?.success())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

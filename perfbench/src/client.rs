//! Open-loop HTTP client: one pacing thread and one reader thread over two
//! keep-alive connections.
//!
//! The pacer sleeps until each request's intended send time and writes it,
//! whatever the daemon is doing, so a stall delays every request queued
//! behind it and each latency runs from the intended send time (no
//! coordinated omission). The reader waits on both sockets with `poll` and
//! matches replies to requests in send order per connection. Pacing with
//! socket read timeouts instead adds a scheduler tick of lateness to every
//! request, which is why the reader owns the waiting.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use crate::sys::{poll, PollFd, POLLIN};

/// One request on the schedule.
pub struct Request {
    /// Intended send time, as an offset from the start of the schedule.
    pub at_ns: u64,
    /// The full HTTP request bytes.
    pub wire: Vec<u8>,
}

/// What came back for one request; `status == 0` means no reply.
#[derive(Debug, Clone, Default)]
pub struct Reply {
    pub status: u16,
    /// When the last byte of the reply was read, from the schedule start.
    pub done_ns: u64,
    pub body: Vec<u8>,
}

impl Reply {
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// Everything the client measured for one schedule.
pub struct LoopResult {
    pub replies: Vec<Reply>,
    /// Actual send time of each request (0 if it was never sent).
    pub sent_ns: Vec<u64>,
    /// Wall time from the schedule start until the last reply or timeout.
    pub wall_ns: u64,
    /// The schedule start.
    pub started: Instant,
}

impl LoopResult {
    /// Latency of request `i` in ms, from its intended send time.
    pub fn latency_ms(&self, reqs: &[Request], i: usize) -> f64 {
        self.replies[i].done_ns.saturating_sub(reqs[i].at_ns) as f64 / 1e6
    }

    /// How late the pacer wrote request `i`, in ms.
    pub fn gen_late_ms(&self, reqs: &[Request], i: usize) -> f64 {
        self.sent_ns[i].saturating_sub(reqs[i].at_ns) as f64 / 1e6
    }
}

const CONNECTIONS: usize = 2;

/// Sends `reqs` on schedule to `addr` and collects every reply, giving up
/// on replies still missing `reply_timeout` after the last send.
pub fn run(addr: &str, reqs: &[Request], reply_timeout: Duration) -> io::Result<LoopResult> {
    let mut writers = Vec::new();
    let mut readers = Vec::new();
    for _ in 0..CONNECTIONS {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        readers.push(s.try_clone()?);
        writers.push(s);
    }
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..CONNECTIONS)
        .map(|_| Mutex::new(VecDeque::new()))
        .collect();
    let sent_ns: Vec<AtomicU64> = (0..reqs.len()).map(|_| AtomicU64::new(0)).collect();
    let pacer_done = AtomicBool::new(false);
    let last_sent_ns = AtomicU64::new(0);
    let t0 = Instant::now();

    let (replies, wall_ns) = thread::scope(|scope| {
        let reader = scope.spawn(|| {
            read_replies(
                &mut readers,
                &queues,
                reqs.len(),
                t0,
                &pacer_done,
                &last_sent_ns,
                reply_timeout,
            )
        });
        for (i, r) in reqs.iter().enumerate() {
            let target = t0 + Duration::from_nanos(r.at_ns);
            loop {
                let now = Instant::now();
                if now >= target {
                    break;
                }
                thread::sleep(target - now);
            }
            let c = i % CONNECTIONS;
            queues[c]
                .lock()
                .expect("queue lock is never poisoned")
                .push_back(i);
            if writers[c].write_all(&r.wire).is_err() {
                break;
            }
            let now = t0.elapsed().as_nanos() as u64;
            sent_ns[i].store(now, Ordering::Relaxed);
            last_sent_ns.store(now, Ordering::Relaxed);
        }
        pacer_done.store(true, Ordering::SeqCst);
        reader.join().expect("reader thread does not panic")
    });
    Ok(LoopResult {
        replies,
        sent_ns: sent_ns.into_iter().map(AtomicU64::into_inner).collect(),
        wall_ns,
        started: t0,
    })
}

fn read_replies(
    streams: &mut [TcpStream],
    queues: &[Mutex<VecDeque<usize>>],
    n: usize,
    t0: Instant,
    pacer_done: &AtomicBool,
    last_sent_ns: &AtomicU64,
    reply_timeout: Duration,
) -> (Vec<Reply>, u64) {
    let mut replies = vec![Reply::default(); n];
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); streams.len()];
    let mut fds: Vec<PollFd> = streams
        .iter()
        .map(|s| PollFd {
            fd: s.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut answered = 0;
    while answered < n && fds.iter().any(|f| f.fd >= 0) {
        if pacer_done.load(Ordering::SeqCst) {
            let deadline = last_sent_ns.load(Ordering::Relaxed) + reply_timeout.as_nanos() as u64;
            if t0.elapsed().as_nanos() as u64 > deadline {
                break;
            }
        }
        for f in fds.iter_mut() {
            f.revents = 0;
        }
        if poll(&mut fds, 20) == 0 {
            continue;
        }
        for c in 0..streams.len() {
            if fds[c].fd < 0 || fds[c].revents == 0 {
                continue;
            }
            match streams[c].read(&mut chunk) {
                Ok(0) | Err(_) => fds[c].fd = -1,
                Ok(k) => {
                    let now = t0.elapsed().as_nanos() as u64;
                    bufs[c].extend_from_slice(&chunk[..k]);
                    let mut used = 0;
                    while let Some((status, body, len)) = parse_response(&bufs[c][used..]) {
                        used += len;
                        let next = queues[c]
                            .lock()
                            .expect("queue lock is never poisoned")
                            .pop_front();
                        if let Some(i) = next {
                            replies[i] = Reply {
                                status,
                                done_ns: now,
                                body,
                            };
                            answered += 1;
                        }
                    }
                    bufs[c].drain(..used);
                }
            }
        }
    }
    (replies, t0.elapsed().as_nanos() as u64)
}

/// Parses one complete HTTP/1.1 response off the front of `buf`: status,
/// body, and bytes consumed. `None` until the whole response is buffered.
pub fn parse_response(buf: &[u8]) -> Option<(u16, Vec<u8>, usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let status = head.split(' ').nth(1)?.parse::<u16>().ok()?;
    let len = head
        .lines()
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .unwrap_or(0);
    if buf.len() < head_end + len {
        return None;
    }
    Some((
        status,
        buf[head_end..head_end + len].to_vec(),
        head_end + len,
    ))
}

/// Sleep-loop calibration with nothing else running: how late a thread
/// wakes for `n` intended times spaced `gap` apart, in ms.
pub fn wake_lateness_ms(n: usize, gap: Duration) -> Vec<f64> {
    let t0 = Instant::now();
    (1..=n)
        .map(|i| {
            let target = t0 + gap * i as u32;
            loop {
                let now = Instant::now();
                if now >= target {
                    break;
                }
                thread::sleep(target - now);
            }
            target.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pipelined_responses_one_at_a_time() {
        let mut wire = Vec::new();
        mbts_serve::http::write_response(&mut wire, 200, "OK", &[], b"{\"a\":1}").unwrap();
        mbts_serve::http::write_response(&mut wire, 404, "Not Found", &[], b"{}").unwrap();
        let (s1, b1, n1) = parse_response(&wire).unwrap();
        assert_eq!((s1, b1.as_slice()), (200, &b"{\"a\":1}"[..]));
        let (s2, b2, n2) = parse_response(&wire[n1..]).unwrap();
        assert_eq!((s2, b2.as_slice(), n1 + n2), (404, &b"{}"[..], wire.len()));
        assert!(parse_response(&wire[..n1 - 1]).is_none());
    }
}

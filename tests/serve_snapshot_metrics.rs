//! The snapshot stall on `GET /metrics`: every service snapshot the
//! daemon writes (genesis, cadence, drain seal) is one sample of
//! `serve_snapshot_duration_seconds`, capture + encode + append.
//!
//! Its own test binary: the registry is process-global, so the exact
//! count below only holds when no other server shares the process.

use mbts::durable::{framing, RecordTag};
use mbts::serve::{self, ServeConfig, Server};
use mbts::site::SiteConfig;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::time::Duration;

fn submit(addr: &str, value: f64) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
    let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
    let body = format!("{{\"runtime\":1.0,\"value\":{value},\"decay\":0.01}}");
    serve::http::write_post(&mut writer, "/submit", body.as_bytes()).expect("write");
    writer.flush().expect("flush");
    let resp = serve::http::read_response(&mut BufReader::new(stream))
        .expect("read")
        .expect("response");
    assert_eq!(resp.status, 200);
}

#[test]
fn snapshot_count_on_metrics_matches_the_snapshots_written() {
    let dir = std::env::temp_dir().join(format!("mbts-snapshot-metrics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("svc.mbtsj");
    let _ = std::fs::remove_file(&journal);
    mbts::sim::metrics::reset();

    let server = Server::start(ServeConfig {
        site: SiteConfig::new(2),
        journal: Some(journal.clone()),
        snapshot_every: 4,
        ..ServeConfig::default()
    })
    .expect("server start");
    let addr = server.addr.to_string();
    for i in 0..10 {
        submit(&addr, 1.0 + i as f64);
    }
    // Genesis plus one per 4 applied commands.
    let live = serve::scrape(&addr).expect("scrape");
    assert_eq!(
        live.value("serve_snapshot_duration_seconds_count"),
        Some(3.0)
    );
    let max = live.value("serve_snapshot_duration_seconds_max").unwrap();
    assert!(max > 0.0, "snapshot stall max {max}");

    server.request_stop();
    let report = server.join().expect("drain");
    assert!(report.clean_drain);
    let bytes = std::fs::read(&journal).unwrap();
    let written = framing::scan(&bytes)
        .unwrap()
        .records
        .iter()
        .filter(|(tag, _)| *tag == RecordTag::Snapshot)
        .count() as u64;
    assert_eq!(written, 4, "genesis, two cadence snapshots, drain seal");
    let after = mbts::sim::metrics::snapshot();
    assert_eq!(after.series("serve_snapshot").unwrap().count, written);
    std::fs::remove_dir_all(&dir).ok();
}

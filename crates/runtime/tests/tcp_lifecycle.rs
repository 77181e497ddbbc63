//! Start/stop cycles of a TCP cluster, with and without worker lanes, idle and under
//! traffic: every helper thread is joined, and nothing panics or hangs.
//!
//! Alone in its file (and so in its process) because its tests count the process's
//! helper threads; they take turns through [`TURN`].

use pocc_proto::{ClientReply, ProtocolClient};
use pocc_protocol::Client;
use pocc_runtime::{Cluster, ProtocolKind, TransportKind};
use pocc_storage::partition_for_key;
use pocc_types::{Config, Key, ServerId, Value};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Held by each test for its whole run, so no other test's helpers are counted.
static TURN: Mutex<()> = Mutex::new(());

/// The process's threads that the cluster runtime started: every one of them is named
/// `pocc-…`. The test harness's own threads come and go as tests start and end, so they
/// are not counted.
#[cfg(target_os = "linux")]
fn threads_alive() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task lists this process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("pocc-"))
        .count()
}

/// Asserts that the process is back to `threads_before` helper threads. A joined thread
/// can stay listed in /proc for a moment after it exits, so this waits (boundedly) for
/// the count to come back down.
#[cfg(target_os = "linux")]
fn assert_no_thread_left(threads_before: usize) {
    let deadline = Instant::now() + Duration::from_secs(2);
    while threads_alive() > threads_before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        threads_alive(),
        threads_before,
        "a helper thread outlived its cluster"
    );
}

fn tcp_cluster(lanes: usize) -> Cluster {
    let config = Config::builder()
        .num_replicas(2)
        .num_partitions(2)
        .worker_lanes(lanes)
        .build()
        .unwrap();
    Cluster::builder()
        .config(config)
        .protocol(ProtocolKind::Pocc)
        .transport(TransportKind::Tcp)
        .start()
}

#[test]
fn tcp_clusters_start_and_stop_and_leave_no_thread_behind() {
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    #[cfg(target_os = "linux")]
    let threads_before = threads_alive();
    // One lane runs the engine on the connection reader; two add lane threads to join.
    for lanes in [1, 2] {
        for cycle in 0..50u64 {
            let cluster = tcp_cluster(lanes);
            // One acknowledged PUT, so that an acceptor, a connection reader and a port
            // reader (and, with lanes, a lane) have all run before the shutdown.
            let (id, mut port) = cluster.open_port();
            let key = Key(cycle);
            let home = ServerId::new((cycle % 2) as u16, partition_for_key(key, 2));
            let session = Client::new(id, home, 2);
            port.submit(home, session.put(key, Value::from(cycle)))
                .unwrap();
            let reply = port.recv_timeout(Duration::from_secs(5)).unwrap();
            assert!(
                matches!(reply, ClientReply::Put { .. }),
                "lanes={lanes}: got {reply:?}"
            );
            drop(port);
            cluster.shutdown();
        }
    }
    #[cfg(target_os = "linux")]
    assert_no_thread_left(threads_before);
}

#[test]
fn shutdown_racing_pipelined_traffic_neither_panics_nor_hangs() {
    /// How long the traffic thread's port waits for a reply before it gives up. A port
    /// learns that its server is gone only this way, so every cycle waits it out once.
    const PORT_TIMEOUT: Duration = Duration::from_millis(250);
    /// How long a shutdown may take.
    const SHUTDOWN_BOUND: Duration = Duration::from_secs(2);
    /// Requests the traffic thread keeps in flight.
    const WINDOW: usize = 16;
    static PANICS: AtomicUsize = AtomicUsize::new(0);

    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    // A panic on a connection reader, a lane or a server thread would only show as a
    // failed join, which shutdown ignores: count them instead.
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        PANICS.fetch_add(1, Ordering::SeqCst);
        report(info);
    }));
    #[cfg(target_os = "linux")]
    let threads_before = threads_alive();
    let home = ServerId::new(0u16, 0u32);
    let keys: Vec<Key> = (0..)
        .map(Key)
        .filter(|&key| partition_for_key(key, 2) == home.partition)
        .take(64)
        .collect();
    for lanes in [1, 2] {
        for cycle in 0..20 {
            let context = format!("lanes={lanes} cycle={cycle}");
            let cluster = tcp_cluster(lanes);
            let (id, mut port) = cluster.open_port();
            let (flowing_tx, flowing_rx) = mpsc::sync_channel(1);
            let keys = keys.clone();
            let traffic = std::thread::spawn(move || {
                let session = Client::new(id, home, 2);
                let mut in_flight = 0;
                for (n, key) in keys.iter().cycle().enumerate() {
                    let request = session.put(*key, Value::from(n as u64));
                    if port.submit(home, request).is_err() {
                        return;
                    }
                    in_flight += 1;
                    while in_flight == WINDOW {
                        if port.recv_timeout(PORT_TIMEOUT).is_err() {
                            return;
                        }
                        in_flight -= 1;
                        let _ = flowing_tx.try_send(());
                    }
                }
            });
            flowing_rx
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|_| panic!("{context}: no reply before the shutdown"));

            let shutting_down = Instant::now();
            cluster.shutdown();
            let stopped = Instant::now();
            assert!(
                stopped - shutting_down < SHUTDOWN_BOUND,
                "{context}: the shutdown took {:?}",
                stopped - shutting_down
            );
            let deadline = stopped + PORT_TIMEOUT + Duration::from_secs(1);
            while !traffic.is_finished() {
                assert!(
                    Instant::now() < deadline,
                    "{context}: the traffic thread hangs past its port's timeout"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
            traffic
                .join()
                .unwrap_or_else(|_| panic!("{context}: the traffic thread panicked"));
        }
    }
    let _ = std::panic::take_hook();
    assert_eq!(PANICS.load(Ordering::SeqCst), 0, "a thread panicked");
    #[cfg(target_os = "linux")]
    assert_no_thread_left(threads_before);
}

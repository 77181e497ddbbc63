//! Start/stop cycles of a TCP cluster, with and without worker lanes: every helper thread
//! is joined.
//!
//! Alone in its file (and so in its process) because it counts the process's threads.

use pocc_proto::{ClientReply, ProtocolClient};
use pocc_protocol::Client;
use pocc_runtime::{Cluster, ProtocolKind, TransportKind};
use pocc_storage::partition_for_key;
use pocc_types::{Config, Key, ServerId, Value};
use std::time::{Duration, Instant};

#[cfg(target_os = "linux")]
fn threads_alive() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task lists this process's threads")
        .count()
}

#[test]
fn tcp_clusters_start_and_stop_and_leave_no_thread_behind() {
    #[cfg(target_os = "linux")]
    let threads_before = threads_alive();
    // One lane runs the engine on the server thread; two add lane threads to join.
    for lanes in [1, 2] {
        let config = Config::builder()
            .num_replicas(2)
            .num_partitions(2)
            .worker_lanes(lanes)
            .build()
            .unwrap();
        for cycle in 0..50u64 {
            let cluster = Cluster::builder()
                .config(config.clone())
                .protocol(ProtocolKind::Pocc)
                .transport(TransportKind::Tcp)
                .start();
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
    // A joined thread can stay listed in /proc for a moment after it exits, so wait
    // (boundedly) for the count to come back down.
    #[cfg(target_os = "linux")]
    {
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
}

//! End-to-end tests of the threaded in-process cluster (`pocc-runtime`).
//!
//! These exercise the same protocol state machines as the simulator tests, but on real
//! threads and real (emulated-WAN) timing, through the synchronous client API that the
//! examples and downstream applications use.

use pocc::prelude::*;
use std::time::Duration;

fn start(config: Config, protocol: ProtocolKind) -> Cluster {
    Cluster::builder().config(config).protocol(protocol).start()
}

fn config(replicas: usize, partitions: usize, wan_ms: u64) -> Config {
    Config::builder()
        .num_replicas(replicas)
        .num_partitions(partitions)
        .latency(LatencyMatrix::uniform(
            replicas,
            Duration::from_micros(100),
            Duration::from_millis(wan_ms),
        ))
        .build()
        .unwrap()
}

/// Polls a closure until it returns `Some`, or panics after ~2 seconds.
fn eventually<T>(mut f: impl FnMut() -> Option<T>) -> T {
    for _ in 0..1_000 {
        if let Some(v) = f() {
            return v;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("condition not reached within the polling budget");
}

#[test]
fn writes_are_read_back_in_session() {
    let cluster = start(config(3, 4, 10), ProtocolKind::Pocc);
    let mut client = cluster.client(ReplicaId(1));
    for k in 0..20u64 {
        client.put(Key(k), Value::from(k)).unwrap();
    }
    for k in 0..20u64 {
        let v = client.get(Key(k)).unwrap().expect("own writes are visible");
        assert_eq!(v, Value::from(k));
    }
    cluster.shutdown();
}

#[test]
fn geo_replication_delivers_updates_to_every_data_center() {
    let cluster = start(config(3, 2, 5), ProtocolKind::Pocc);
    let mut writer = cluster.client(ReplicaId(0));
    writer.put(Key(1), Value::from("everywhere")).unwrap();
    for replica in 1..3u16 {
        let mut reader = cluster.client(ReplicaId(replica));
        let value = eventually(|| reader.get(Key(1)).unwrap());
        assert_eq!(value.as_slice(), b"everywhere");
    }
    cluster.shutdown();
}

#[test]
fn causal_order_is_preserved_across_data_centers() {
    // The photo/comment scenario: whenever the dependent item is visible remotely, its
    // dependency must be visible too, for many rounds and several interleavings.
    let cluster = start(config(2, 4, 8), ProtocolKind::Pocc);
    let mut alice = cluster.client(ReplicaId(0));
    let mut bob = cluster.client(ReplicaId(1));
    for round in 0..20u64 {
        let photo = Key(1_000 + round);
        let comment = Key(2_000 + round);
        alice.put(photo, Value::from("photo")).unwrap();
        alice.put(comment, Value::from("comment")).unwrap();

        // Wait until the comment becomes visible in DC1, then the photo must be there too.
        eventually(|| bob.get(comment).unwrap());
        let photo_value = bob.get(photo).unwrap();
        assert!(
            photo_value.is_some(),
            "round {round}: comment visible without its causally preceding photo"
        );
    }
    cluster.shutdown();
}

#[test]
fn read_dependencies_propagate_between_clients_of_the_same_dc() {
    let cluster = start(config(2, 4, 8), ProtocolKind::Pocc);
    let mut writer = cluster.client(ReplicaId(0));
    let mut relay = cluster.client(ReplicaId(1));
    let mut reader = cluster.client(ReplicaId(1));

    writer.put(Key(10), Value::from("base")).unwrap();
    // The relay in DC1 observes the replicated value and writes something that depends on
    // it; the reader then reads the relay's write followed by the base key.
    let base = eventually(|| relay.get(Key(10)).unwrap());
    assert_eq!(base.as_slice(), b"base");
    relay.put(Key(11), Value::from("derived")).unwrap();

    let derived = eventually(|| reader.get(Key(11)).unwrap());
    assert_eq!(derived.as_slice(), b"derived");
    let base_again = reader.get(Key(10)).unwrap();
    assert!(
        base_again.is_some(),
        "reading the derived item establishes a dependency on the base item"
    );
    cluster.shutdown();
}

#[test]
fn read_only_transactions_return_complete_snapshots() {
    let cluster = start(config(2, 4, 5), ProtocolKind::Pocc);
    let mut client = cluster.client(ReplicaId(0));
    let keys: Vec<Key> = (100..110u64).map(Key).collect();
    for (i, key) in keys.iter().enumerate() {
        client.put(*key, Value::from(i as u64)).unwrap();
    }
    // Let the heartbeat protocol advance the coordinator's version vector past the writes
    // performed at other partitions (the snapshot is bounded by it).
    std::thread::sleep(Duration::from_millis(15));
    let snapshot = client.ro_tx(keys.clone()).unwrap();
    assert_eq!(snapshot.len(), keys.len());
    assert!(snapshot.iter().all(|(_, v)| v.is_some()));
    cluster.shutdown();
}

#[test]
fn cure_cluster_eventually_exposes_remote_writes() {
    let cluster = start(config(3, 2, 5), ProtocolKind::Cure);
    let mut writer = cluster.client(ReplicaId(0));
    let mut reader = cluster.client(ReplicaId(2));
    writer.put(Key(5), Value::from("stable")).unwrap();
    // Cure* waits for the stabilization protocol before exposing the remote write, but it
    // must become visible eventually.
    let value = eventually(|| reader.get(Key(5)).unwrap());
    assert_eq!(value.as_slice(), b"stable");
    cluster.shutdown();
}

#[test]
fn ha_cluster_serves_all_operation_types() {
    let cluster = start(config(2, 2, 5), ProtocolKind::HaPocc);
    let mut client = cluster.client(ReplicaId(0));
    client.put(Key(1), Value::from("ha")).unwrap();
    assert_eq!(client.get(Key(1)).unwrap().unwrap().as_slice(), b"ha");
    std::thread::sleep(Duration::from_millis(10));
    let tx = client.ro_tx(vec![Key(1), Key(2)]).unwrap();
    assert_eq!(tx.len(), 2);
    cluster.shutdown();
}

#[test]
fn many_clients_in_parallel_do_not_interfere() {
    let cluster = start(config(2, 4, 3), ProtocolKind::Pocc);
    let mut handles = Vec::new();
    for t in 0..6u64 {
        let mut client = cluster.client(ReplicaId((t % 2) as u16));
        handles.push(std::thread::spawn(move || {
            for i in 0..30u64 {
                let key = Key(10_000 + t * 1_000 + i);
                client.put(key, Value::from(i)).unwrap();
                let v = client.get(key).unwrap().expect("read-your-writes");
                assert_eq!(v, Value::from(i));
            }
        }));
    }
    for handle in handles {
        handle.join().expect("client thread panicked");
    }
    cluster.shutdown();
}

//! Quickstart: bring up an in-process geo-replicated POCC cluster, write and read data,
//! and peek at the dependency metadata the protocol tracks for you.
//!
//! Run with:
//! ```text
//! cargo run --example quickstart
//! ```

use pocc::prelude::*;
use std::time::Duration;

fn main() {
    // A three-data-center deployment with 4 partitions per DC and emulated WAN latencies.
    // `Config::paper_testbed()` would give the full 32-partition setup of the paper.
    let config = Config::builder()
        .num_replicas(3)
        .num_partitions(4)
        .latency(LatencyMatrix::uniform(
            3,
            Duration::from_micros(100),
            Duration::from_millis(15),
        ))
        .build()
        .expect("valid configuration");

    println!(
        "starting a POCC cluster: {} data centers x {} partitions = {} server threads",
        config.num_replicas,
        config.num_partitions,
        config.num_servers()
    );
    let cluster = Cluster::builder()
        .config(config)
        .protocol(ProtocolKind::Pocc)
        .start();

    // A client in data center 0 writes a few related keys.
    let mut alice = cluster.client(ReplicaId(0));
    alice
        .put(Key(1), Value::from("profile: Alice"))
        .expect("put profile");
    alice
        .put(Key(2), Value::from("post: hello world"))
        .expect("put post");
    println!(
        "alice wrote 2 keys; her dependency vector is now {}",
        alice.session().dependency_vector()
    );

    // Reading back locally is immediate and always returns the freshest version.
    let post = alice.get(Key(2)).expect("get post").expect("post exists");
    println!(
        "alice reads her post back: {:?}",
        String::from_utf8_lossy(post.as_slice())
    );

    // A client in another data center sees the data once it has replicated over the
    // (emulated) WAN. POCC makes it visible the moment it arrives — no stabilization wait.
    let mut bob = cluster.client(ReplicaId(2));
    let mut profile = None;
    for attempt in 0..200 {
        if let Some(v) = bob.get(Key(1)).expect("get profile") {
            println!(
                "bob (DC2) sees alice's profile after ~{} ms: {:?}",
                attempt * 2,
                String::from_utf8_lossy(v.as_slice())
            );
            profile = Some(v);
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(profile.is_some(), "replication must deliver the profile");

    // Bob reads both keys in one causally consistent snapshot. Give replication and the
    // heartbeat protocol a moment so the snapshot covers both writes.
    std::thread::sleep(Duration::from_millis(50));
    let snapshot = bob
        .ro_tx(vec![Key(1), Key(2)])
        .expect("read-only transaction");
    println!("bob's causal snapshot:");
    for (key, value) in &snapshot {
        println!(
            "  {key} -> {}",
            value
                .as_ref()
                .map(|v| String::from_utf8_lossy(v.as_slice()).into_owned())
                .unwrap_or_else(|| "(not yet visible)".into())
        );
    }

    cluster.shutdown();
    println!("done.");
}

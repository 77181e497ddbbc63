//! A social-network style scenario — the workload class the paper's introduction motivates.
//!
//! Alice posts a photo and then a comment referring to it from data center 0; Bob follows
//! from data center 1. Causal consistency guarantees Bob never sees the comment without
//! the photo it refers to, even though replication of the two items races over the WAN.
//! The example drives many rounds of this pattern and verifies the invariant on every
//! read, demonstrating the guarantee POCC provides while returning the freshest data it
//! can.
//!
//! Run with:
//! ```text
//! cargo run --example social_network
//! ```

use pocc::prelude::*;
use std::time::Duration;

/// Keys: photo number `i` lives at `PHOTO_BASE + i`, its comment at `COMMENT_BASE + i`.
const PHOTO_BASE: u64 = 10_000;
const COMMENT_BASE: u64 = 20_000;
const ROUNDS: u64 = 30;

fn main() {
    let config = Config::builder()
        .num_replicas(2)
        .num_partitions(4)
        .latency(LatencyMatrix::uniform(
            2,
            Duration::from_micros(100),
            Duration::from_millis(10),
        ))
        .build()
        .expect("valid configuration");
    let cluster = Cluster::builder()
        .config(config)
        .protocol(ProtocolKind::Pocc)
        .start();

    let mut alice = cluster.client(ReplicaId(0));
    let mut bob = cluster.client(ReplicaId(1));

    let mut bob_saw_comment = 0u64;
    let mut bob_saw_photo_first = 0u64;

    for round in 0..ROUNDS {
        // Alice uploads a photo, then comments on it: the comment causally depends on the
        // photo through Alice's session.
        alice
            .put(
                Key(PHOTO_BASE + round),
                Value::from(format!("photo #{round}").as_str()),
            )
            .expect("post photo");
        alice
            .put(
                Key(COMMENT_BASE + round),
                Value::from(format!("comment on photo #{round}").as_str()),
            )
            .expect("post comment");

        // Bob polls his timeline: he reads the comment first (the "dangerous" order) and
        // then the photo. Under causal consistency, whenever the comment is visible the
        // photo must be too — POCC enforces this by blocking the photo read until the
        // photo has been received, which in practice has already happened.
        for _ in 0..50 {
            let comment = bob.get(Key(COMMENT_BASE + round)).expect("read comment");
            if comment.is_some() {
                bob_saw_comment += 1;
                let photo = bob.get(Key(PHOTO_BASE + round)).expect("read photo");
                assert!(
                    photo.is_some(),
                    "causality violated: comment #{round} visible without its photo"
                );
                bob_saw_photo_first += 1;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    println!("rounds driven:                {ROUNDS}");
    println!("comments Bob observed:        {bob_saw_comment}");
    println!("photo present every time:     {bob_saw_photo_first}");
    println!("causal-consistency violations: 0 (asserted on every read)");

    cluster.shutdown();
}

//! The whole `STATS` payload, byte for byte: every counter of an
//! [`EngineMetrics`] set to a distinct value and every optional section
//! (`buffer_pool`, `replication` as a follower, `net` with two tenants and
//! pipeline depths) turned on. The clock-derived values are masked.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

use dc_serve::EngineMetrics;

/// Replaces the number after each clock-derived key with `_`.
fn mask_clock(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(at) = rest.find("\":") {
        let (head, tail) = rest.split_at(at + 2);
        out.push_str(head);
        let key = &head[head[..head.len() - 2].rfind('"').map_or(0, |i| i + 1)..head.len() - 2];
        rest = tail;
        if key == "uptime_secs" || key == "snapshot_age_ms" || key.ends_with("_per_sec") {
            let end = rest
                .find(|c: char| !(c.is_ascii_digit() || c == '.'))
                .unwrap_or(rest.len());
            out.push('_');
            rest = &rest[end..];
        }
    }
    out.push_str(rest);
    out
}

/// Histogram samples are `2^k − 1` ns (depths `2^k − 1`): the largest
/// value of their bucket whether a histogram buckets by power of two or
/// splits each power of two further, so their quantiles read exactly.
#[test]
fn stats_json_golden() {
    let m = EngineMetrics::new(2);
    let mut next = 0u64;
    let mut set = |c: &AtomicU64| {
        next += 1;
        c.store(next, Relaxed);
    };
    for c in [&m.inserts, &m.deletes, &m.queries, &m.shard_visits] {
        set(c);
    }
    for c in [&m.insert_batches, &m.insert_batch_records] {
        set(c);
    }
    let c = &m.cache;
    for a in [
        &c.hits,
        &c.semantic_hits,
        &c.misses,
        &c.patches,
        &c.invalidations,
        &c.insertions,
        &c.evictions,
        &c.entries,
    ] {
        set(a);
    }
    let p = &m.pool;
    for a in [
        &p.workers,
        &p.queued_tasks,
        &p.busy_workers,
        &p.tasks,
        &p.inline_tasks,
        &p.steals,
    ] {
        set(a);
    }
    let p = &m.plan;
    for a in [
        &p.plans,
        &p.explains,
        &p.chose_descend,
        &p.chose_bitmap,
        &p.chose_mview,
        &p.chose_scan,
        &p.mispredictions,
        &p.est_pages,
        &p.actual_pages,
    ] {
        set(a);
    }
    let d = &m.durability;
    for a in [
        &d.wal_appends,
        &d.wal_syncs,
        &d.wal_rotations,
        &d.wal_segment,
        &d.wal_last_lsn,
        &d.wal_synced_lsn,
        &d.checkpoints,
        &d.checkpoint_last_lsn,
        &d.checkpoint_last_bytes,
        &d.recovery_checkpoint_lsn,
        &d.recovery_replayed_entries,
        &d.recovery_truncated_bytes,
        &d.recovery_tail_lost,
    ] {
        set(a);
    }
    let b = &m.buffer_pool;
    for a in [
        &b.enabled,
        &b.hits,
        &b.misses,
        &b.evictions,
        &b.writebacks,
        &b.resident,
        &b.capacity,
        &b.node_decodes,
        &b.node_encodes,
        &b.decoded_hits,
        &b.decoded_nodes,
    ] {
        set(a);
    }
    let r = &m.replication;
    for a in [
        &r.enabled,
        &r.follower,
        &r.applied_lsn,
        &r.segment_fetches,
        &r.segments_shipped,
        &r.bytes_shipped,
        &r.checkpoint_fetches,
        &r.checkpoint_redirects,
        &r.waits,
        &r.wait_timeouts,
    ] {
        set(a);
    }
    m.replication.follower.store(1, Relaxed);
    let n = &m.net;
    for a in [
        &n.enabled,
        &n.active_connections,
        &n.accepted_total,
        &n.requests_total,
        &n.shed_total,
        &n.bytes_in,
        &n.bytes_out,
    ] {
        set(a);
    }
    for s in &m.shards {
        for a in [
            &s.queue_depth,
            &s.applied,
            &s.snapshot_records,
            &s.snapshot_published_at,
            &s.publishes,
            &s.io_reads,
            &s.io_writes,
        ] {
            set(a);
        }
    }
    let t = m.net.tenant("analytics");
    t.admitted.store(901, Relaxed);
    t.denied.store(902, Relaxed);
    let t = m.net.tenant("default");
    t.admitted.store(903, Relaxed);
    t.denied.store(904, Relaxed);
    for depth in [0, 1, 3, 7, 7, 31] {
        m.net.pipeline_depth.record(depth);
    }
    for (h, k) in [
        (&m.query_latency, 17),
        (&m.apply_latency, 14),
        (&m.batch_apply_latency, 20),
        (&m.cache.lookup_latency, 11),
    ] {
        for j in 0..4 {
            h.record(Duration::from_nanos((1u64 << (k + j)) - 1));
        }
    }
    assert_eq!(
        mask_clock(&m.to_json()),
        concat!(
            r#"{"uptime_secs":_,"inserts_total":1,"deletes_total":2,"queries_total":3,"inserts_per_sec":_,"queries_per_sec":_,"avg_shards_per_query":1.33"#,
            r#","query_latency_us":{"count":4,"mean":491.5,"p50":262.1,"p99":1048.6},"apply_latency_us":{"count":4,"mean":61.4,"p50":32.8,"p99":131.1}"#,
            r#","ingest":{"batches":5,"batch_records":6,"mean_batch_size":1.2,"batch_apply_latency_us":{"count":4,"mean":3932.2,"p50":2097.2,"p99":8388.6}}"#,
            r#","cache":{"hits":7,"semantic_hits":8,"misses":9,"hit_rate":0.625,"patches":10,"invalidations":11,"insertions":12,"evictions":13,"entries":14,"lookup_latency_us":{"count":4,"mean":7.7,"p50":4.1,"p99":16.4}}"#,
            r#","pool":{"workers":15,"queued_tasks":16,"busy_workers":17,"tasks":18,"inline_tasks":19,"steals":20,"task_latency_us":{"count":0,"mean":0.0,"p50":0.0,"p99":0.0}}"#,
            r#","plan":{"plans":21,"explains":22,"chose":{"descend":23,"mview":25},"mispredictions":27,"est_pages":28,"actual_pages":29}"#,
            r#","durability":{"wal_appends":30,"wal_syncs":31,"wal_rotations":32,"wal_segment":33,"wal_last_lsn":34,"wal_synced_lsn":35,"checkpoints":36,"checkpoint_last_lsn":37,"checkpoint_last_bytes":38,"recovery_checkpoint_lsn":39,"recovery_replayed_entries":40,"recovery_truncated_bytes":41,"recovery_tail_lost":42}"#,
            r#","buffer_pool":{"pool_hits":44,"pool_misses":45,"pool_hit_rate":0.494,"pool_evictions":46,"pool_writebacks":47,"pool_resident":48,"pool_capacity":49,"node_decodes":50,"node_encodes":51,"decoded_hits":52,"decoded_nodes":53}"#,
            r#","replication":{"role":"follower","applied_lsn":56,"segment_fetches":57,"segments_shipped":58,"bytes_shipped":59,"checkpoint_fetches":60,"checkpoint_redirects":61,"waits":62,"wait_timeouts":63}"#,
            r#","net":{"active_connections":65,"accepted_total":66,"requests_total":67,"shed_total":68,"bytes_in":69,"bytes_out":70,"pipeline_depth":{"count":6,"mean":8.0,"p50":3,"p99":31},"tenants":{"analytics":{"admitted":901,"denied":902},"default":{"admitted":903,"denied":904}}}"#,
            r#","shards":[{"queue_depth":71,"applied":72,"snapshot_records":73,"snapshot_age_ms":_,"io_reads":76,"io_writes":77},{"queue_depth":78,"applied":79,"snapshot_records":80,"snapshot_age_ms":_,"io_reads":83,"io_writes":84}]}"#,
        )
    );
}

//! The `gnnmls bench cluster` load generator.
//!
//! Spawns a whole cluster (front + managed shard processes), drives
//! mixed what-if/inference traffic from parallel seeded clients —
//! including a kill-one-shard-mid-run schedule aimed at the busiest
//! shard — and writes the `BENCH_cluster.json` ledger: p50/p99
//! latency, shed rate, per-shard cache-hit rate, failovers, and
//! `lost_after_retry`, which the robustness contract requires to be
//! **zero** even with a shard dying mid-run.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use gnn_mls::session::SessionSpec;
use gnnmls_par::rng::SplitMix64;
use serde::{Deserialize, Serialize};

use gnnmls_serve::cluster::{ClusterConfig, ClusterFront, ShardBackendSpec, ShardSpawnSpec};
use gnnmls_serve::protocol::{Request, ResponseKind};
use gnnmls_serve::{Client, ClientError, RetryPolicy};

/// Load-generator knobs; the CLI maps `gnnmls bench cluster` flags
/// onto these.
#[derive(Clone, Debug)]
pub struct ClusterBenchConfig {
    /// Backend shards to spawn.
    pub shards: usize,
    /// Concurrent client connections.
    pub clients: usize,
    /// Total requests across all clients.
    pub requests: usize,
    /// Distinct spec variants in the traffic mix (more variants spread
    /// load over more shards).
    pub specs: usize,
    /// Kill the busiest spec's primary shard halfway through.
    pub kill_mid_run: bool,
    /// Seed for the traffic mix and retry jitter.
    pub seed: u64,
    /// The `gnnmls` binary to spawn shards from.
    pub shard_exe: PathBuf,
    /// Shard argv ahead of `--addr` (usually `["serve"]` plus knobs).
    pub shard_args: Vec<String>,
    /// Workspace root the ledger is written under
    /// (`<root>/target/bench/BENCH_cluster.json`).
    pub out_root: PathBuf,
    /// Passed through to [`ClusterConfig::checkpoint_dir`].
    pub checkpoint_dir: Option<PathBuf>,
}

impl Default for ClusterBenchConfig {
    fn default() -> Self {
        Self {
            shards: 3,
            clients: 4,
            requests: 120,
            specs: 6,
            kill_mid_run: true,
            seed: 0xBE_5C,
            shard_exe: PathBuf::from("gnnmls"),
            shard_args: vec!["serve".into()],
            out_root: PathBuf::from("."),
            checkpoint_dir: None,
        }
    }
}

/// Per-shard slice of the bench ledger.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ShardBenchStats {
    /// Ring id.
    pub id: u32,
    /// Requests the shard served (its own counter).
    pub served: u64,
    /// Warm cache hits.
    pub cache_hits: u64,
    /// Cold builds.
    pub cache_misses: u64,
    /// `hits / (hits + misses)`; 0 when idle.
    pub hit_rate: f64,
    /// Child deaths observed by the supervisor.
    pub crashes: u64,
    /// Respawns performed by the supervisor.
    pub respawns: u64,
}

/// The `BENCH_cluster.json` ledger.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClusterBenchReport {
    /// Ledger schema version.
    pub schema_version: u32,
    /// Shards in the cluster.
    pub shards: u64,
    /// Concurrent clients.
    pub clients: u64,
    /// Requests attempted.
    pub requests: u64,
    /// Requests that got a final `Ok`.
    pub ok: u64,
    /// Requests whose final outcome was `Busy` (shed).
    pub shed: u64,
    /// Requests whose final outcome was an error/gave-up.
    pub errored: u64,
    /// `shed / requests`.
    pub shed_rate: f64,
    /// Median end-to-end latency, ms.
    pub p50_ms: f64,
    /// 99th-percentile end-to-end latency, ms.
    pub p99_ms: f64,
    /// Which shard the kill schedule hit (`None` when disabled).
    pub killed_shard: Option<u32>,
    /// Front-counted requests answered off their primary shard.
    pub failovers: u64,
    /// Off-primary answers that were `Ok` (accepted cold builds).
    pub failover_cold: u64,
    /// Requests the front could not serve after every retry. The
    /// acceptance gate: **must be 0**.
    pub lost_after_retry: u64,
    /// Supervisor respawns over the run.
    pub shard_respawns: u64,
    /// Per-shard cache behavior.
    pub per_shard: Vec<ShardBenchStats>,
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * p).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

/// Spec variant `i`: same design family, distinct cache keys, so the
/// ring spreads them over the shards. The gnn-mls policy trains the
/// session model so the inference share of the mix is answerable.
fn bench_spec(i: usize) -> SessionSpec {
    let mut spec = SessionSpec::fast("maeri16");
    spec.policy = gnn_mls::flow::FlowPolicy::GnnMls;
    spec.target_freq_mhz = 2500.0 + i as f64;
    spec
}

/// Runs the full cluster bench: spawn, warm, mixed traffic (+ optional
/// mid-run kill), drain, ledger.
///
/// # Errors
///
/// A string describing the spawn/bind failure; traffic-level failures
/// are data, not errors.
pub fn run_cluster_bench(cfg: &ClusterBenchConfig) -> Result<ClusterBenchReport, String> {
    let cluster_cfg = ClusterConfig {
        probe_interval_ms: 100,
        breaker_cooldown_ms: 300,
        retries: 6,
        checkpoint_dir: cfg.checkpoint_dir.clone(),
        seed: cfg.seed,
        ..Default::default()
    };
    let backends = (0..cfg.shards.max(1))
        .map(|_| {
            ShardBackendSpec::Spawn(ShardSpawnSpec {
                exe: cfg.shard_exe.clone(),
                args: cfg.shard_args.clone(),
            })
        })
        .collect();
    let front = ClusterFront::start(cluster_cfg, backends)
        .map_err(|e| format!("cluster start failed: {e}"))?;
    let addr = front.local_addr();
    let specs: Vec<SessionSpec> = (0..cfg.specs.max(1)).map(bench_spec).collect();

    // Warm every spec once so the steady-state traffic measures warm
    // serving (and the kill measures real warm-loss + failover).
    {
        let mut client =
            Client::connect(addr).map_err(|e| format!("warmup connect failed: {e}"))?;
        let policy = RetryPolicy {
            max_attempts: 8,
            seed: cfg.seed,
            ..Default::default()
        };
        for (i, spec) in specs.iter().enumerate() {
            let req = Request::what_if(i as u64 + 1, spec.clone(), 0, true, None);
            client
                .request_with_retry(&req, &policy)
                .map_err(|e| format!("warmup what-if failed: {e}"))?;
        }
    }

    let victim = if cfg.kill_mid_run {
        front.primary_shard(specs[0].cache_key())
    } else {
        None
    };
    let total = cfg.requests.max(1);
    let clients = cfg.clients.max(1);
    let completed = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let idx: Vec<usize> = (0..clients).collect();

    // (outcome, latency) per request, gathered per client.
    let mut results: Vec<Vec<(ResponseKind, f64, bool)>> = Vec::new();
    std::thread::scope(|s| {
        let watcher = s.spawn(|| {
            if let Some(victim) = victim {
                while !done.load(Ordering::SeqCst)
                    && completed.load(Ordering::SeqCst) < (total / 2) as u64
                {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                if !done.load(Ordering::SeqCst) {
                    front.kill_shard(victim);
                }
            }
        });
        results = gnnmls_par::par_map(clients, &idx, |&k| {
            let n = total / clients + usize::from(k < total % clients);
            let mut out = Vec::with_capacity(n);
            let Ok(mut client) = Client::connect(addr) else {
                return out;
            };
            let mut rng = SplitMix64::new(cfg.seed ^ (k as u64).wrapping_mul(0x9E37));
            let policy = RetryPolicy {
                max_attempts: 6,
                base_delay_ms: 10,
                max_delay_ms: 300,
                seed: cfg.seed ^ k as u64,
            };
            for i in 0..n {
                let spec = &specs[rng.next_below(specs.len() as u64) as usize];
                let id = (k * total + i) as u64 + 1_000;
                // ~70% what-if, ~30% inference — the serving mix the
                // single-daemon bench uses.
                let req = if rng.next_below(10) < 7 {
                    let net = rng.next_below(16) as u32;
                    Request::what_if(id, spec.clone(), net, true, None)
                } else {
                    Request::infer(id, spec.clone(), Some(8))
                };
                let t0 = Instant::now();
                let outcome = client.request_with_retry(&req, &policy);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                match outcome {
                    Ok(resp) => out.push((resp.kind, ms, false)),
                    Err(ClientError::GaveUp { .. }) => out.push((ResponseKind::Error, ms, true)),
                    Err(ClientError::Frame(_)) => {
                        out.push((ResponseKind::Error, ms, true));
                        if let Ok(c) = Client::connect(addr) {
                            client = c;
                        }
                    }
                }
                completed.fetch_add(1, Ordering::SeqCst);
            }
            out
        });
        done.store(true, Ordering::SeqCst);
        let _ = watcher.join();
    });

    let cluster_stats = front.shutdown();

    let mut latencies: Vec<f64> = Vec::with_capacity(total);
    let (mut ok, mut shed, mut errored) = (0u64, 0u64, 0u64);
    for (kind, ms, gave_up) in results.into_iter().flatten() {
        latencies.push(ms);
        match kind {
            ResponseKind::Ok => ok += 1,
            ResponseKind::Busy => shed += 1,
            _ if gave_up => errored += 1,
            ResponseKind::Error => errored += 1,
            ResponseKind::Rejected | ResponseKind::Quarantined => errored += 1,
        }
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let attempted = latencies.len() as u64;

    let per_shard = cluster_stats
        .shards
        .iter()
        .map(|s| {
            let (hits, misses, served) = match &s.stats {
                Some(st) => (st.cache_hits, st.cache_misses, st.served),
                None => (0, 0, 0),
            };
            ShardBenchStats {
                id: s.id,
                served,
                cache_hits: hits,
                cache_misses: misses,
                hit_rate: if hits + misses > 0 {
                    hits as f64 / (hits + misses) as f64
                } else {
                    0.0
                },
                crashes: s.crashes,
                respawns: s.respawns,
            }
        })
        .collect();

    let report = ClusterBenchReport {
        schema_version: 1,
        shards: cfg.shards.max(1) as u64,
        clients: clients as u64,
        requests: attempted,
        ok,
        shed,
        errored,
        shed_rate: if attempted > 0 {
            shed as f64 / attempted as f64
        } else {
            0.0
        },
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
        killed_shard: victim.map(u32::from),
        failovers: cluster_stats.failovers,
        failover_cold: cluster_stats.failover_cold,
        lost_after_retry: cluster_stats.lost_after_retry,
        shard_respawns: cluster_stats.shard_respawns,
        per_shard,
    };
    gnnmls_bench::render::write_bench_json(&cfg.out_root, "BENCH_cluster.json", &report);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_pick_from_the_sorted_tail() {
        let v = vec![1.0, 2.0, 3.0, 4.0, 100.0];
        assert_eq!(percentile(&v, 0.50), 3.0);
        assert_eq!(percentile(&v, 0.99), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn bench_specs_have_distinct_cache_keys() {
        let keys: Vec<u64> = (0..6).map(|i| bench_spec(i).cache_key()).collect();
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j], "specs {i} and {j} collide");
            }
        }
        assert!(bench_spec(0).validate().is_ok());
    }
}

//! The benchmark's workloads, as lists of `(Scenario, seed, protocol)`
//! jobs. The job seeds are derived from the `--seed` argument; the
//! scenarios are fixed.

use ag_harness::figures::fig2;
use ag_harness::{ProtocolKind, ReceptionModel, Scenario};
use ag_sim::rng::{SeedSplitter, StreamKind};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Figure 2 sweep: 40 nodes, 45–85 m, 600 s, bare MAODV
    /// and MAODV+gossip.
    PaperFig2,
    /// MAODV+gossip on `Scenario::city_scale(20000)` for 1 simulated
    /// second, four seeds one after another.
    City20k,
    /// The stress matrix's harshest cell (2 m/s, 8 dB shadowing, churn
    /// up 40 s / down 20 s), all three protocols.
    StressHarsh,
}

/// Seeds per sweep point of `paper_fig2`. Seeds differ in cost, so
/// with fewer a batch's wall time depends on which seeds `--seed`
/// picked; with more, fewer batches fit in a run to median away host
/// noise.
const FIG2_SEEDS: u64 = 4;
/// Seeds per protocol of `stress_harsh`. Per-seed cost varies with the
/// churn pattern, so a batch pools many seeds.
const STRESS_SEEDS: u64 = 20;
/// Simulated seconds of `city_20k`.
const CITY_SECS: u64 = 1;
/// Seeds of `city_20k`. One seed's cost differs from another's by up to
/// a quarter, so a batch pools several; each runs alone (its engine
/// already uses every thread), and short runs let more batches fit.
const CITY_SEEDS: u64 = 4;
/// Node count of `city_20k`.
const CITY_NODES: usize = 20_000;

/// Jobs that run together on the worker pool; stages run in order.
#[derive(Debug, Clone)]
pub struct Stage {
    /// The scenario every job of the stage runs.
    pub scenario: Scenario,
    /// `(seed, protocol)` per job, in merge order.
    pub jobs: Vec<(u64, ProtocolKind)>,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperFig2,
        Workload::City20k,
        Workload::StressHarsh,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFig2 => "paper_fig2",
            Workload::City20k => "city_20k",
            Workload::StressHarsh => "stress_harsh",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's jobs for benchmark seed `seed`.
    pub fn stages(self, seed: u64) -> Vec<Stage> {
        let splitter = SeedSplitter::new(seed);
        let seeds = |n: u64| -> Vec<u64> {
            (0..n)
                .map(|i| splitter.derive(StreamKind::Scenario, i))
                .collect()
        };
        match self {
            // One stage per sweep point, points in order, bare MAODV
            // then gossip per seed — the order `sweep_par` runs them.
            Workload::PaperFig2 => {
                let spec = fig2();
                let seeds = seeds(FIG2_SEEDS);
                spec.xs
                    .iter()
                    .map(|&x| {
                        let mut scenario = spec.base.clone();
                        (spec.apply)(&mut scenario, x);
                        let jobs = seeds
                            .iter()
                            .flat_map(|&s| [(s, ProtocolKind::Maodv), (s, ProtocolKind::Gossip)])
                            .collect();
                        Stage { scenario, jobs }
                    })
                    .collect()
            }
            // One single-job stage per seed, so the jobs run one at a
            // time with the tile layer's threads to themselves.
            Workload::City20k => {
                let scenario = Scenario::city_scale(CITY_NODES).with_duration_secs(CITY_SECS);
                seeds(CITY_SEEDS)
                    .into_iter()
                    .map(|s| Stage {
                        scenario: scenario.clone(),
                        jobs: vec![(s, ProtocolKind::Gossip)],
                    })
                    .collect()
            }
            Workload::StressHarsh => {
                let scenario = Scenario::paper(40, 75.0, 2.0)
                    .with_reception(ReceptionModel::Shadowing {
                        sigma_db: 8.0,
                        path_loss_exp: 3.0,
                    })
                    .with_churn(40.0, 20.0);
                let seeds = seeds(STRESS_SEEDS);
                let jobs = [
                    ProtocolKind::Gossip,
                    ProtocolKind::Maodv,
                    ProtocolKind::Odmrp,
                ]
                .into_iter()
                .flat_map(|k| seeds.iter().map(move |&s| (s, k)))
                .collect();
                vec![Stage { scenario, jobs }]
            }
        }
    }
}

//! Engines built from public APIs exactly as `ag-harness` builds them,
//! so the benchmark can time set-up apart from the event loop and run
//! the traced variant of a job.
//!
//! `ag_harness::run_counting` is the reference: every traced job's
//! [`RunResult`] and event count are compared with it, so a drift
//! between this file and the harness shows up as failed jobs, never
//! as silently different numbers.

use ag_core::AnonymousGossip;
use ag_harness::{MemberStats, Parallelism, ProtocolKind, RunResult, Scenario, GROUP};
use ag_maodv::{MaodvProtocol, TrafficSource};
use ag_mobility::{Mobility, PauseRange, RandomWaypoint, SpeedRange};
use ag_net::{Engine, NodeId, NodeSetup, PhyParams, Protocol};
use ag_odmrp::{OdmrpConfig, OdmrpProtocol};
use ag_sim::rng::{SeedSplitter, StreamKind};

use crate::trace::{self, clock, ns_since, Tally, Traced, TracedMobility};

/// A protocol stack whose per-member outcome the harness reports.
pub trait Stack: Protocol {
    /// The member's row of [`RunResult::members`].
    fn member_stats(&self, node: NodeId) -> MemberStats;
}

impl Stack for AnonymousGossip {
    fn member_stats(&self, node: NodeId) -> MemberStats {
        MemberStats {
            node,
            received: self.delivery().distinct(),
            via_tree: self.delivery().via_tree(),
            via_gossip: self.delivery().via_gossip(),
            goodput_percent: self.metrics().goodput_percent(),
            gossip_rounds: self.metrics().rounds_total(),
        }
    }
}

impl Stack for MaodvProtocol {
    fn member_stats(&self, node: NodeId) -> MemberStats {
        MemberStats {
            node,
            received: self.delivery().distinct(),
            via_tree: self.delivery().via_tree(),
            via_gossip: 0,
            goodput_percent: None,
            gossip_rounds: 0,
        }
    }
}

impl Stack for OdmrpProtocol {
    fn member_stats(&self, node: NodeId) -> MemberStats {
        MemberStats {
            node,
            received: self.delivery().distinct(),
            via_tree: self.delivery().via_tree(),
            via_gossip: 0,
            goodput_percent: None,
            gossip_rounds: 0,
        }
    }
}

impl<P: Stack> Stack for Traced<P> {
    fn member_stats(&self, node: NodeId) -> MemberStats {
        self.0.member_stats(node)
    }
}

fn mobility_for(sc: &Scenario, seed: u64, node: usize) -> Box<dyn Mobility> {
    let mut rng = SeedSplitter::new(seed).stream(StreamKind::Placement, node as u64);
    Box::new(RandomWaypoint::new(
        sc.field,
        SpeedRange::new(sc.min_speed, sc.max_speed.max(1e-3)),
        PauseRange::paper(),
        &mut rng,
    ))
}

fn phy(sc: &Scenario) -> PhyParams {
    let mut phy = PhyParams::paper_default(sc.range_m)
        .with_spatial_index(sc.spatial_index)
        .with_reception(sc.reception);
    if let Some(churn) = sc.churn {
        phy = phy.with_churn(churn);
    }
    phy
}

/// The harness's `build_engine`, with optional wrapping of every
/// node's mobility model.
fn build<P, F>(
    sc: &Scenario,
    seed: u64,
    traced: bool,
    mut make: F,
) -> (Engine<P>, Vec<NodeId>, NodeId)
where
    P: Protocol,
    F: FnMut(NodeId, bool, Option<TrafficSource>) -> P,
{
    let members = sc.members_for_seed(seed);
    let source = members[0];
    let mut member_flags = vec![false; sc.nodes];
    for m in &members {
        member_flags[m.index()] = true;
    }
    let nodes = (0..sc.nodes)
        .map(|i| {
            let id = NodeId::new(i as u32);
            let traffic = (id == source).then_some(sc.traffic);
            let mobility = mobility_for(sc, seed, i);
            NodeSetup {
                mobility: if traced {
                    Box::new(TracedMobility(mobility))
                } else {
                    mobility
                },
                protocol: make(id, member_flags[i], traffic),
            }
        })
        .collect();
    let mut engine = Engine::new(phy(sc), seed, nodes);
    engine.set_threads(Parallelism::auto().threads());
    (engine, members, source)
}

fn gossip(sc: &Scenario, id: NodeId, member: bool, t: Option<TrafficSource>) -> AnonymousGossip {
    AnonymousGossip::new(sc.ag, sc.maodv, id, GROUP, member, t)
}

fn maodv(sc: &Scenario, id: NodeId, member: bool, t: Option<TrafficSource>) -> MaodvProtocol {
    MaodvProtocol::new(sc.maodv, id, GROUP, member, t)
}

fn odmrp(id: NodeId, member: bool, t: Option<TrafficSource>) -> OdmrpProtocol {
    OdmrpProtocol::new(OdmrpConfig::default_paper(), id, GROUP, member, t)
}

/// Host nanoseconds to build (not run) the engine of one job.
pub fn setup_ns(sc: &Scenario, seed: u64, kind: ProtocolKind) -> u64 {
    fn timed<P, F>(sc: &Scenario, seed: u64, make: F) -> u64
    where
        P: Protocol,
        F: FnMut(NodeId, bool, Option<TrafficSource>) -> P,
    {
        let t0 = clock();
        let built = build(sc, seed, false, make);
        let ns = ns_since(t0);
        drop(built);
        ns
    }
    match kind {
        ProtocolKind::Gossip => timed(sc, seed, |i, m, t| gossip(sc, i, m, t)),
        ProtocolKind::Maodv => timed(sc, seed, |i, m, t| maodv(sc, i, m, t)),
        ProtocolKind::Odmrp => timed(sc, seed, odmrp),
    }
}

/// What the wrappers and engine accessors saw during one traced job.
#[derive(Debug, Clone, Default)]
pub struct JobTrace {
    /// Host ns building the engine (protocol `start` calls included).
    pub setup_ns: u64,
    /// Wrapper tallies during the build.
    pub setup: Tally,
    /// Host ns inside `run_until`.
    pub run_ns: u64,
    /// Wrapper tallies during `run_until`.
    pub run: Tally,
    /// Process resident set right after the build, in KiB.
    pub rss_after_setup_kib: u64,
    /// `Engine::events_scheduled`.
    pub events_scheduled: u64,
    /// `Engine::parallel_hits`: `TxEnd`s served by the tile
    /// precompute layer.
    pub precompute_hits: u64,
}

/// Runs one job with every boundary wrapped; returns what
/// `run_counting` returns plus the job's trace.
pub fn run_traced(sc: &Scenario, seed: u64, kind: ProtocolKind) -> (RunResult, u64, JobTrace) {
    fn go<P, F>(sc: &Scenario, seed: u64, kind: ProtocolKind, make: F) -> (RunResult, u64, JobTrace)
    where
        P: Stack,
        F: FnMut(NodeId, bool, Option<TrafficSource>) -> P,
    {
        let mut jt = JobTrace::default();
        trace::take();
        let t0 = clock();
        let (mut engine, members, source) = build(sc, seed, true, make);
        jt.setup_ns = ns_since(t0);
        jt.setup = trace::take();
        jt.rss_after_setup_kib = crate::proc_status_kib("VmRSS").unwrap_or(0);
        let t0 = clock();
        engine.run_until(sc.sim_time);
        jt.run_ns = ns_since(t0);
        jt.run = trace::take();
        jt.events_scheduled = engine.events_scheduled();
        jt.precompute_hits = engine.parallel_hits();
        let events = engine.events_processed();
        let result = RunResult {
            protocol: kind,
            seed,
            source,
            sent: sc.packets_sent(),
            members: members
                .iter()
                .map(|&m| engine.protocol(m).member_stats(m))
                .collect(),
            counters: engine
                .counters()
                .iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        };
        (result, events, jt)
    }
    match kind {
        ProtocolKind::Gossip => go(sc, seed, kind, |i, m, t| Traced(gossip(sc, i, m, t))),
        ProtocolKind::Maodv => go(sc, seed, kind, |i, m, t| Traced(maodv(sc, i, m, t))),
        ProtocolKind::Odmrp => go(sc, seed, kind, |i, m, t| Traced(odmrp(i, m, t))),
    }
}

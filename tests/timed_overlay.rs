//! Time-driven overlay simulation: one Poisson churn stream drives a
//! real overlay while Property 1 (limited identifier lifetimes) is
//! enforced in the *time* domain — expired incarnations are detected at
//! event time and force the peer out, exactly as Section III-D
//! prescribes.

use pollux_des::churn::{ChurnKind, EventMix};
use pollux_overlay::incarnation::IncarnationPolicy;
use pollux_overlay::{ops, Behavior, Cluster, ClusterParams, Label, Member, Overlay, PeerRegistry};
use pollux_prob::exponential;
use rand::{rngs::StdRng, RngExt, SeedableRng};

struct ChurnedOverlay {
    overlay: Overlay,
    registry: PeerRegistry,
    policy: IncarnationPolicy,
    mix: EventMix,
    rng: StdRng,
    next_joiner: usize,
    churn_events: u64,
    forced_expirations: u64,
}

impl ChurnedOverlay {
    fn member_for(&mut self, idx: usize, t: f64) -> Member {
        let peer = &self.registry.peers()[idx % self.registry.len()];
        Member {
            peer: peer.id,
            malicious: peer.behavior == Behavior::Malicious,
            id: peer.current_id(&self.policy, t),
        }
    }

    /// Property-1 sweep of one cluster: members presenting an identifier
    /// that is no longer valid at time `t` are cut (spares leave, core
    /// members trigger the maintenance procedure).
    fn expire_invalid_members(&mut self, label: &Label, t: f64) {
        loop {
            let cluster = self.overlay.cluster(label).expect("label exists");
            let stale = cluster
                .core()
                .iter()
                .chain(cluster.spare())
                .find(|m| {
                    let peer = self.registry.peer(m.peer).expect("registry member");
                    !self
                        .policy
                        .is_id_valid(&peer.initial_id, peer.certificate.t0 as f64, &m.id, t)
                })
                .map(|m| m.peer);
            let Some(peer) = stale else { break };
            let cluster = self.overlay.cluster_mut(label).expect("label exists");
            if cluster.position_in_spare_public(peer) {
                ops::leave_spare(cluster, peer).expect("stale spare leaves");
            } else if cluster.spare_size() > 0 {
                ops::leave_core_randomized(cluster, peer, 1, &mut self.rng)
                    .expect("stale core member leaves");
            } else {
                break; // would force a merge; leave it to the churn logic
            }
            self.forced_expirations += 1;
        }
    }
}

/// Test-only helper: expose spare membership without widening the library
/// API surface.
trait SparePos {
    fn position_in_spare_public(&self, peer: pollux_overlay::PeerId) -> bool;
}

impl SparePos for Cluster {
    fn position_in_spare_public(&self, peer: pollux_overlay::PeerId) -> bool {
        self.spare().iter().any(|m| m.peer == peer)
    }
}

impl ChurnedOverlay {
    /// Serves one churn arrival at time `t` on a uniformly drawn cluster.
    fn churn(&mut self, t: f64) {
        self.churn_events += 1;
        let labels = self.overlay.labels();
        let label = labels[self.rng.random_range(0..labels.len())].clone();

        // Enforce Property 1 before serving the event.
        self.expire_invalid_members(&label, t);

        match self.mix.sample(&mut self.rng) {
            ChurnKind::Join => {
                let idx = self.next_joiner;
                self.next_joiner += 1;
                let member = self.member_for(idx, t);
                let cluster = self.overlay.cluster_mut(&label).expect("label exists");
                if !cluster.contains(member.peer) && !cluster.must_split() {
                    ops::join(cluster, member).expect("join fits");
                } else if cluster.must_split() {
                    let _ = self.overlay.split_cluster(&label, &mut self.rng);
                }
            }
            ChurnKind::Leave => {
                let cluster = self.overlay.cluster_mut(&label).expect("label exists");
                if cluster.must_merge() {
                    let _ = self.overlay.merge_cluster(&label);
                } else if cluster.spare_size() > 0 {
                    let total = cluster.params().core_size() + cluster.spare_size();
                    let pick = self.rng.random_range(0..total);
                    if pick < cluster.params().core_size() {
                        let peer = cluster.core()[pick].peer;
                        ops::leave_core_randomized(cluster, peer, 1, &mut self.rng)
                            .expect("core leave with spares available");
                    } else {
                        let peer = cluster.spare()[pick - cluster.params().core_size()].peer;
                        ops::leave_spare(cluster, peer).expect("spare leave");
                    }
                }
            }
        }
    }
}

fn bootstrap(registry: &PeerRegistry, policy: &IncarnationPolicy) -> Overlay {
    let params = ClusterParams::new(4, 6).unwrap();
    let mut clusters = Vec::new();
    let mut idx = 0usize;
    for label in ["00", "01", "10", "11"] {
        let take = |idx: &mut usize, t: f64| {
            let peer = &registry.peers()[*idx];
            *idx += 1;
            Member {
                peer: peer.id,
                malicious: peer.behavior == Behavior::Malicious,
                id: peer.current_id(policy, t),
            }
        };
        let core: Vec<Member> = (0..4).map(|_| take(&mut idx, 0.0)).collect();
        let spare: Vec<Member> = (0..3).map(|_| take(&mut idx, 0.0)).collect();
        clusters.push(Cluster::new(Label::parse(label).unwrap(), params, core, spare).unwrap());
    }
    Overlay::bootstrap(params, clusters).unwrap()
}

#[test]
fn timed_churn_respects_property_1_and_invariants() {
    let mut rng = StdRng::seed_from_u64(2011);
    let registry = PeerRegistry::generate(2000, 0.1, &mut rng);
    // Lifetime of 40 time units with a 2-unit grace window; churn rate 2
    // events per unit: identifiers expire every ~80 events.
    let policy = IncarnationPolicy::new(40.0, 2.0).unwrap();
    let overlay = bootstrap(&registry, &policy);
    let mut h = ChurnedOverlay {
        overlay,
        registry,
        policy,
        mix: EventMix::balanced(),
        rng,
        next_joiner: 28,
        churn_events: 0,
        forced_expirations: 0,
    };

    // The first arrival is at t = 0; each later one follows an
    // exponential gap at rate 2, drawn after the arrival is served.
    let horizon = 400.0;
    let (mut t, mut last) = (0.0, 0.0);
    while t <= horizon {
        h.churn(t);
        last = t;
        t += exponential::sample(&mut h.rng, 2.0);
    }
    // Poisson count sanity: ~rate * horizon events (5-sigma band).
    let expected = 2.0 * horizon;
    assert!(
        (h.churn_events as f64 - expected).abs() < 5.0 * expected.sqrt() + 1.0,
        "churn events {} vs expected {expected}",
        h.churn_events
    );
    // Identifiers expired (~10 lifetimes elapsed) and were acted upon.
    assert!(
        h.forced_expirations > 20,
        "expected many Property-1 expirations, got {}",
        h.forced_expirations
    );
    // Structural invariants survived the whole run.
    h.overlay.check_cover().expect("prefix cover intact");
    for cl in h.overlay.clusters() {
        cl.check_invariants().expect("cluster invariants intact");
    }
    // And no member currently presents an identifier older than the grace
    // window allows... except possibly in clusters that could not run a
    // maintenance (empty spare set); those are rare — require 90% clean.
    let t = last;
    let mut total = 0usize;
    let mut valid = 0usize;
    for cl in h.overlay.clusters() {
        for m in cl.core().iter().chain(cl.spare()) {
            total += 1;
            let peer = h.registry.peer(m.peer).unwrap();
            if h.policy
                .is_id_valid(&peer.initial_id, peer.certificate.t0 as f64, &m.id, t)
            {
                valid += 1;
            }
        }
    }
    assert!(
        valid as f64 >= 0.9 * total as f64,
        "only {valid}/{total} members hold valid identifiers"
    );
}

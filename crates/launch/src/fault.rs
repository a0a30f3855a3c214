//! Fault injection: the degraded-mode axis of the launch DES.
//!
//! The paper's model — and every layer of this crate through the batch
//! planner — assumes a perfectly reliable metadata server. The regime the
//! paper studies (thousands of ranks hammering NFS metadata) is exactly
//! where real servers brown out, RPCs time out, and client retries amplify
//! the very contention being measured. [`FaultModel`] makes those failure
//! modes a first-class, seeded scenario axis:
//!
//! * [`FaultModel::ServerStall`] — the server freezes for a window (GC
//!   pause, failover, brownout): no op may *start* service inside
//!   `[at_ns, at_ns + duration_ns)`; ops already in service complete, and
//!   the queue keeps building against the stalled clock. Draw-free.
//! * [`FaultModel::RpcLoss`] — each served op's *response* is lost with
//!   probability `loss_milli / 1000`. The client times out `timeout_ns`
//!   after it sent the request, backs off exponentially
//!   (`backoff_base_ns · 2^attempt`), and re-issues. Retries are real
//!   extra server work — the server pays the full service time for every
//!   lost attempt — so the offered load amplifies as `ρ / (1 − loss)`.
//!   Attempt `max_retries` always succeeds (and takes no loss draw), so
//!   every launch terminates.
//! * [`FaultModel::Stragglers`] — a seeded `frac_milli / 1000` fraction of
//!   cold nodes is slow: every one of a straggler's server ops costs
//!   `slow_milli / 1000 ×` its (possibly jitter-scaled) service time.
//!
//! All fault draws come from the dedicated [`SplitMix::FAULT`] stream
//! domain (`split(seed, FAULT, node)`), consumed strictly in each node's
//! own event order. Two consequences: every cell stays deterministic and
//! content-addressable from `(seed, fault, node)` alone, and a faulted
//! cell shares its NODE-domain service draws with the fault-free cell of
//! the same seed — common random numbers, so degradation *deltas* are
//! low-variance. `FaultModel::None` takes zero draws and leaves every
//! result bit-identical to the pre-fault engine.
//!
//! [`SplitMix::FAULT`]: depchaos_workloads::SplitMix::FAULT

use depchaos_workloads::SplitMix;
use serde::{Deserialize, Serialize};

use crate::des::scale_service_ns;

/// The fault-injection model one launch simulates under. See the module
/// docs for semantics; parameters are integers (milli-units for rates and
/// factors) so the model can sit in `Eq + Hash` scenario keys and hash
/// stably into the serve store's content address.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultModel {
    /// Healthy server — the exact pre-fault engine, bit for bit.
    #[default]
    None,
    /// The server freezes for `[at_ns, at_ns + duration_ns)`: no op starts
    /// service inside the window (in-flight service completes).
    ServerStall { at_ns: u64, duration_ns: u64 },
    /// Responses are lost with probability `loss_milli / 1000`; the client
    /// re-issues `timeout_ns` after send plus `backoff_base_ns · 2^attempt`
    /// exponential backoff, giving up on loss only at attempt
    /// `max_retries` (which always succeeds).
    RpcLoss { loss_milli: u32, timeout_ns: u64, backoff_base_ns: u64, max_retries: u32 },
    /// A seeded `frac_milli / 1000` fraction of cold nodes runs its server
    /// ops `slow_milli / 1000 ×` slower.
    Stragglers { frac_milli: u32, slow_milli: u32 },
}

impl FaultModel {
    pub fn is_none(&self) -> bool {
        matches!(self, FaultModel::None)
    }

    /// Whether this model consumes FAULT-domain RNG draws. `ServerStall`
    /// is draw-free (pure clock arithmetic), so cells differing only in
    /// seed still collapse to one deterministic kernel under it.
    pub fn takes_draws(&self) -> bool {
        matches!(self, FaultModel::RpcLoss { .. } | FaultModel::Stragglers { .. })
    }

    /// Stable display/report/TSV/label name. `None` spells `none`; the
    /// parameterised variants encode every parameter so two models can
    /// never alias a label (and so a scenario seed).
    pub fn name(&self) -> String {
        match *self {
            FaultModel::None => "none".to_string(),
            FaultModel::ServerStall { at_ns, duration_ns } => {
                format!("stall-{at_ns}-{duration_ns}")
            }
            FaultModel::RpcLoss { loss_milli, timeout_ns, backoff_base_ns, max_retries } => {
                format!("loss-{loss_milli}-{timeout_ns}-{backoff_base_ns}-{max_retries}")
            }
            FaultModel::Stragglers { frac_milli, slow_milli } => {
                format!("stragglers-{frac_milli}-{slow_milli}")
            }
        }
    }

    /// Inverse of [`FaultModel::name`] — the spelling the serve front door
    /// accepts as a `fault:` delta.
    pub fn parse(s: &str) -> Option<FaultModel> {
        if s == "none" {
            return Some(FaultModel::None);
        }
        if let Some(rest) = s.strip_prefix("stall-") {
            let mut it = rest.splitn(2, '-');
            let at_ns = it.next()?.parse().ok()?;
            let duration_ns = it.next()?.parse().ok()?;
            return Some(FaultModel::ServerStall { at_ns, duration_ns });
        }
        if let Some(rest) = s.strip_prefix("loss-") {
            let parts: Vec<&str> = rest.split('-').collect();
            if parts.len() != 4 {
                return None;
            }
            return Some(FaultModel::RpcLoss {
                loss_milli: parts[0].parse().ok()?,
                timeout_ns: parts[1].parse().ok()?,
                backoff_base_ns: parts[2].parse().ok()?,
                max_retries: parts[3].parse().ok()?,
            });
        }
        if let Some(rest) = s.strip_prefix("stragglers-") {
            let mut it = rest.splitn(2, '-');
            let frac_milli = it.next()?.parse().ok()?;
            let slow_milli = it.next()?.parse().ok()?;
            return Some(FaultModel::Stragglers { frac_milli, slow_milli });
        }
        None
    }

    /// The retry amplification factor on offered server load:
    /// `1 / (1 − loss)` under [`FaultModel::RpcLoss`] (every attempt is
    /// independent work and a `loss` fraction of attempts is wasted), 1
    /// otherwise. A loss rate ≥ 1 would amplify without bound through the
    /// forced final attempt; it is reported as infinite.
    pub fn load_amplification(&self) -> f64 {
        match *self {
            FaultModel::RpcLoss { loss_milli, .. } => {
                if loss_milli >= 1000 {
                    f64::INFINITY
                } else {
                    1000.0 / (1000.0 - loss_milli as f64)
                }
            }
            _ => 1.0,
        }
    }
}

/// Exponential backoff before retry `attempt + 1`:
/// `base · 2^attempt`, saturating instead of overflowing for absurd
/// attempt counts.
pub(crate) fn backoff_ns(base_ns: u64, attempt: u32) -> u64 {
    if attempt >= 63 {
        return u64::MAX;
    }
    base_ns.saturating_mul(1u64 << attempt)
}

/// Fault accounting one cold-fleet replay produced — the extra columns a
/// [`crate::LaunchResult`] carries. All-zero under [`FaultModel::None`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// RPC attempts re-issued after a lost response.
    pub retries: u64,
    /// Client timeouts that fired (equal to `retries` in this model; kept
    /// separate so a future partial-timeout model needn't re-plumb).
    pub timeouts: u64,
    /// The longest single backoff wait any client slept.
    pub max_backoff_ns: u64,
    /// Cold nodes the straggler draw slowed.
    pub slowed_nodes: usize,
}

impl FaultCounts {
    pub(crate) fn note_retry(&mut self, backoff_ns: u64) {
        self.retries += 1;
        self.timeouts += 1;
        self.max_backoff_ns = self.max_backoff_ns.max(backoff_ns);
    }
}

/// How a fault model enters the event heap (`des::heap_schedule`). The
/// heap loop is generic over it, so the [`Healthy`] instantiation — every
/// method the identity — compiles to the fault-free loop.
pub(crate) trait FaultHook {
    /// The service time `node` actually occupies the server for, given
    /// its (possibly dist-scaled) draw.
    fn service(&self, node: usize, svc_ns: u64) -> u64;
    /// The instant service starts, given the earliest its lane allows.
    fn start(&self, start_ns: u64) -> u64;
    /// Called once the server finished `node`'s request that arrived at
    /// `arrival_ns`: the re-issued request's arrival when the response was
    /// lost, `None` when it got through.
    fn lost(&mut self, node: usize, arrival_ns: u64) -> Option<u64>;
}

/// [`FaultModel::None`]: takes no draws and changes nothing.
pub(crate) struct Healthy;

impl FaultHook for Healthy {
    #[inline(always)]
    fn service(&self, _node: usize, svc_ns: u64) -> u64 {
        svc_ns
    }

    #[inline(always)]
    fn start(&self, start_ns: u64) -> u64 {
        start_ns
    }

    #[inline(always)]
    fn lost(&mut self, _node: usize, _arrival_ns: u64) -> Option<u64> {
        None
    }
}

/// Any other [`FaultModel`], executed event-accurately. The semantics,
/// identical in the `des::reference` oracle:
///
/// * **ServerStall** — an op whose service would *start* inside
///   `[at_ns, at_ns + duration_ns)` waits until the window closes, on
///   every lane; in-flight service completes. Draw-free.
/// * **RpcLoss** — after the server finishes an op (the work is done and
///   the lane's busy clock stands), the response is lost with probability
///   `loss_milli / 1000` unless this was the node's attempt `max_retries`
///   (forced success, no draw taken). A lost op is re-issued at
///   `t_send + timeout_ns + backoff_base_ns · 2^attempt` with the *same*
///   drawn service time — the retry is the same request, so no new NODE
///   draw — and the node's segment cursor does not advance.
/// * **Stragglers** — before any event, cold node `i` draws membership
///   (`below(1000) < frac_milli`); members scale every (possibly
///   dist-scaled) service time by `slow_milli / 1000` through the same
///   clamp as the distribution factor.
///
/// Draws come from `SplitMix::split(seed, FAULT, node)`, consumed in the
/// node's own event order — a node has exactly one outstanding request, so
/// its verdict sequence is heap-schedule-independent, which is what keeps
/// the fast engine and the reference oracle bit-identical.
pub(crate) struct FaultInjector {
    model: FaultModel,
    half_rtt: u64,
    rngs: Vec<SplitMix>,
    /// Straggler membership per cold node (empty unless `Stragglers`).
    slow: Vec<bool>,
    slow_factor: f64,
    /// Retry attempt of each node's outstanding request (`RpcLoss` only).
    attempts: Vec<u32>,
    pub(crate) counts: FaultCounts,
}

impl FaultInjector {
    pub(crate) fn new(model: FaultModel, seed: u64, cold_nodes: usize, half_rtt: u64) -> Self {
        let mut rngs: Vec<SplitMix> = if model.takes_draws() {
            (0..cold_nodes).map(|i| SplitMix::split(seed, SplitMix::FAULT, i as u64)).collect()
        } else {
            Vec::new()
        };
        // Straggler membership: one FAULT draw per cold node, in node
        // order, before any event executes.
        let (slow, slow_factor) = match model {
            FaultModel::Stragglers { frac_milli, slow_milli } => (
                rngs.iter_mut().map(|r| r.below(1000) < frac_milli as u64).collect::<Vec<bool>>(),
                slow_milli as f64 / 1000.0,
            ),
            _ => (Vec::new(), 1.0),
        };
        let attempts = if matches!(model, FaultModel::RpcLoss { .. }) {
            vec![0; cold_nodes]
        } else {
            Vec::new()
        };
        let counts =
            FaultCounts { slowed_nodes: slow.iter().filter(|&&s| s).count(), ..Default::default() };
        FaultInjector { model, half_rtt, rngs, slow, slow_factor, attempts, counts }
    }
}

impl FaultHook for FaultInjector {
    fn service(&self, node: usize, svc_ns: u64) -> u64 {
        if self.slow.get(node).copied().unwrap_or(false) {
            scale_service_ns(svc_ns, self.slow_factor)
        } else {
            svc_ns
        }
    }

    fn start(&self, start_ns: u64) -> u64 {
        if let FaultModel::ServerStall { at_ns, duration_ns } = self.model {
            // A brownout stalls the whole fleet: every lane's start inside
            // the window waits for it to close.
            let end = at_ns.saturating_add(duration_ns);
            if start_ns >= at_ns && start_ns < end {
                return end;
            }
        }
        start_ns
    }

    fn lost(&mut self, node: usize, arrival_ns: u64) -> Option<u64> {
        let FaultModel::RpcLoss { loss_milli, timeout_ns, backoff_base_ns, max_retries } =
            self.model
        else {
            return None;
        };
        let attempt = &mut self.attempts[node];
        if *attempt < max_retries && self.rngs[node].below(1000) < loss_milli as u64 {
            // Response lost: the server did the work but the client never
            // hears back. It times out relative to its own send instant,
            // sleeps its exponential backoff, and re-issues the request.
            let t_send = arrival_ns - self.half_rtt;
            let backoff = backoff_ns(backoff_base_ns, *attempt);
            self.counts.note_retry(backoff);
            *attempt += 1;
            let resend = t_send.saturating_add(timeout_ns).saturating_add(backoff);
            return Some(resend.saturating_add(self.half_rtt));
        }
        *attempt = 0;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_parse() {
        let models = [
            FaultModel::None,
            FaultModel::ServerStall { at_ns: 2_000_000_000, duration_ns: 10_000_000_000 },
            FaultModel::RpcLoss {
                loss_milli: 50,
                timeout_ns: 1_000_000_000,
                backoff_base_ns: 250_000_000,
                max_retries: 5,
            },
            FaultModel::Stragglers { frac_milli: 100, slow_milli: 4000 },
        ];
        for m in models {
            assert_eq!(FaultModel::parse(&m.name()), Some(m), "{}", m.name());
        }
        assert_eq!(FaultModel::parse("stall-1"), None);
        assert_eq!(FaultModel::parse("loss-1-2-3"), None);
        assert_eq!(FaultModel::parse("brownout"), None);
    }

    #[test]
    fn draw_taking_is_per_variant() {
        assert!(!FaultModel::None.takes_draws());
        assert!(!FaultModel::ServerStall { at_ns: 0, duration_ns: 1 }.takes_draws());
        assert!(FaultModel::RpcLoss {
            loss_milli: 1,
            timeout_ns: 1,
            backoff_base_ns: 1,
            max_retries: 1
        }
        .takes_draws());
        assert!(FaultModel::Stragglers { frac_milli: 1, slow_milli: 2000 }.takes_draws());
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        assert_eq!(backoff_ns(100, 0), 100);
        assert_eq!(backoff_ns(100, 1), 200);
        assert_eq!(backoff_ns(100, 10), 102_400);
        assert_eq!(backoff_ns(u64::MAX / 2, 2), u64::MAX);
        assert_eq!(backoff_ns(1, 63), u64::MAX);
        assert_eq!(backoff_ns(1, 200), u64::MAX);
    }

    #[test]
    fn amplification_is_the_retry_geometric_series() {
        assert_eq!(FaultModel::None.load_amplification(), 1.0);
        let loss = FaultModel::RpcLoss {
            loss_milli: 500,
            timeout_ns: 1,
            backoff_base_ns: 1,
            max_retries: 3,
        };
        assert!((loss.load_amplification() - 2.0).abs() < 1e-12);
        let total = FaultModel::RpcLoss {
            loss_milli: 1000,
            timeout_ns: 1,
            backoff_base_ns: 1,
            max_retries: 3,
        };
        assert!(total.load_amplification().is_infinite());
    }
}

//! The seeded fault injector — a [`gpu_sim::FaultHook`] implementation.
//!
//! Two operating modes:
//!
//! * **random** — per the paper's §II-A protocol, each threadblock is an
//!   independent victim candidate; the per-block probability derives from
//!   the schedule (a rate in errors/second spread over the launch). Within
//!   a stricken block a uniformly random MMA event, accumulator element and
//!   bit position are corrupted; the SEU cap (`max_per_block`) is enforced.
//!   Every decision is counter-based: a pure hash of (seed, launch ordinal,
//!   [`MmaSite`], the event's ordinal among same-site events of its block).
//!   A block runs on one thread, so those ordinals — and with them the
//!   fault sites — do not depend on how blocks interleave across workers.
//! * **planned** — deterministic injections at named (block, warp, k_step)
//!   sites for reproducible unit tests.
//!
//! [`Injector::records`] returns records in (launch, site, ordinal) order,
//! never in arrival order.

use crate::model::SeuModel;
use crate::schedule::{InjectionSchedule, RateRealization};
use crate::stats::InjectionRecord;
use gpu_sim::mma::{FaultHook, MmaSite};
use gpu_sim::Scalar;
use parking_lot::Mutex;
use std::collections::HashMap;

/// SplitMix64 step — the standard 64-bit finalizer. Injection decisions,
/// campaign cell seeds and per-batch injection seeds all derive from it.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A site without its block-local repetition: `(block, warp, k_step,
/// is_checksum)`.
type SiteKey = ((usize, usize), usize, usize, bool);

/// Sort key of a record: `(launch ordinal, site, event ordinal)`.
type RecordKey = (u64, SiteKey, u64);

/// A deterministic injection order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedInjection {
    /// Victim threadblock.
    pub block: (usize, usize),
    /// Victim warp within the block.
    pub warp: usize,
    /// K-step of the MMA slab to corrupt (matched exactly).
    pub k_step: usize,
    /// Accumulator element index to flip.
    pub elem_idx: usize,
    /// Bit position to flip.
    pub bit: u32,
    /// Whether to strike a checksum MMA instead of payload.
    pub target_checksum: bool,
}

/// Injector configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectorConfig {
    pub schedule: InjectionSchedule,
    pub model: SeuModel,
    /// Seed of the counter-based draws (campaigns are reproducible).
    pub seed: u64,
    /// Estimated kernel duration (converts a rate schedule into per-block
    /// probability).
    pub kernel_time_hint_s: f64,
    /// Threadblocks in the launch.
    pub blocks_hint: usize,
    /// Eligible MMA events per block (warps × k-slabs), used to spread the
    /// per-block probability across events.
    pub events_per_block_hint: u64,
}

#[derive(Debug, Default)]
struct InjectorState {
    /// Ordinal of the current launch (bumped by [`Injector::begin_launch`]).
    launch: u64,
    /// Events seen so far this launch, per site.
    site_events: HashMap<SiteKey, u64>,
    per_block_injections: HashMap<(usize, usize), u32>,
    records: Vec<(RecordKey, InjectionRecord)>,
    planned: Vec<PlannedInjection>,
}

/// Thread-safe fault injector shared by all simulated threadblocks.
#[derive(Debug)]
pub struct Injector {
    cfg: InjectorConfig,
    p_event: f64,
    state: Mutex<InjectorState>,
}

impl Injector {
    /// Random-mode injector.
    pub fn new(cfg: InjectorConfig) -> Self {
        let p_block = cfg
            .schedule
            .per_block_probability(cfg.kernel_time_hint_s, cfg.blocks_hint.max(1));
        let p_event = if cfg.events_per_block_hint == 0 {
            0.0
        } else {
            (p_block / cfg.events_per_block_hint as f64).clamp(0.0, 1.0)
        };
        Injector {
            cfg,
            p_event,
            state: Mutex::new(InjectorState::default()),
        }
    }

    /// Planned-mode injector: fire exactly the given injections.
    pub fn planned(injections: Vec<PlannedInjection>) -> Self {
        let cfg = InjectorConfig {
            schedule: InjectionSchedule::Off,
            model: SeuModel {
                max_per_block: u32::MAX,
                ..SeuModel::default()
            },
            seed: 0,
            kernel_time_hint_s: 0.0,
            blocks_hint: 0,
            events_per_block_hint: 0,
        };
        Injector {
            cfg,
            p_event: 0.0,
            state: Mutex::new(InjectorState {
                planned: injections,
                ..InjectorState::default()
            }),
        }
    }

    /// Injections performed so far, in (launch, site, event ordinal)
    /// order — the same list whatever order the blocks ran in.
    pub fn records(&self) -> Vec<InjectionRecord> {
        let mut keyed = self.state.lock().records.clone();
        keyed.sort_by_key(|(key, _)| *key);
        keyed.into_iter().map(|(_, r)| r).collect()
    }

    /// Number of injections performed.
    pub fn injected_count(&self) -> u64 {
        self.state.lock().records.len() as u64
    }

    /// Start the next launch: advance the launch ordinal and reset the
    /// per-launch state (the SEU cap and the site event ordinals). Call it
    /// between kernel launches. Keeps the records.
    pub fn begin_launch(&self) {
        let mut st = self.state.lock();
        st.launch += 1;
        st.site_events.clear();
        st.per_block_injections.clear();
    }

    /// Effective per-event probability (test introspection).
    pub fn p_event(&self) -> f64 {
        self.p_event
    }

    /// Requested vs. achievable injection rate under this injector's
    /// schedule and launch-shape hints. When a [`InjectionSchedule::Rate`]
    /// saturates the per-block probability clamp, `achieved_hz` falls
    /// short of `requested_hz` — campaigns report that shortfall instead
    /// of silently under-injecting.
    pub fn realization(&self) -> RateRealization {
        self.cfg
            .schedule
            .realization(self.cfg.kernel_time_hint_s, self.cfg.blocks_hint.max(1))
    }

    /// `mma_event` distinguishes tensor-core MMA slabs (`post_mma`) from
    /// scalar SIMT FMA results (`post_fma`) so the [`FaultTarget`] can
    /// restrict a campaign to one stream — e.g. `PayloadMma` covers exactly
    /// the distance accumulators, leaving the DMR-protected update phase
    /// unstruck, per the paper's §V-C protocol.
    fn corrupt_slice<T: Scalar>(&self, site: &MmaSite, acc: &mut [T], mma_event: bool) {
        if acc.is_empty() {
            return;
        }
        let mut st = self.state.lock();

        // Planned mode: exact site match.
        if !st.planned.is_empty() {
            if let Some(pos) = st.planned.iter().position(|p| {
                p.block == site.block
                    && p.warp == site.warp
                    && p.k_step == site.k_step
                    && p.target_checksum == site.is_checksum
            }) {
                let p = st.planned.remove(pos);
                let idx = p.elem_idx.min(acc.len() - 1);
                let old = acc[idx];
                let new = old.flip_bit(p.bit.min(T::BITS - 1));
                acc[idx] = new;
                let key = (st.launch, site_key(site), 0);
                st.records.push((
                    key,
                    InjectionRecord {
                        block: site.block,
                        warp: site.warp,
                        k_step: site.k_step,
                        hit_checksum: site.is_checksum,
                        elem_idx: idx,
                        bit: p.bit.min(T::BITS - 1),
                        width: T::BITS,
                        magnitude: (new.to_f64() - old.to_f64()).abs(),
                    },
                ));
            }
            return;
        }

        // Random mode.
        if self.p_event <= 0.0 {
            return;
        }
        let eligible = if site.is_checksum {
            self.cfg.model.target.allows_checksum()
        } else if mma_event {
            self.cfg.model.target.allows_payload_mma()
        } else {
            self.cfg.model.target.allows_fma()
        };
        if !eligible {
            return;
        }
        let key = site_key(site);
        let ordinal = {
            let n = st.site_events.entry(key).or_insert(0);
            *n += 1;
            *n - 1
        };
        let hits = st
            .per_block_injections
            .get(&site.block)
            .copied()
            .unwrap_or(0);
        if hits >= self.cfg.model.max_per_block {
            return;
        }
        // Counter-based draws: strike?, element, bit.
        let h = [
            st.launch,
            site.block.0 as u64,
            site.block.1 as u64,
            site.warp as u64,
            site.k_step as u64,
            site.is_checksum as u64,
            ordinal,
        ]
        .iter()
        .fold(splitmix64(self.cfg.seed), |h, &w| splitmix64(h ^ w));
        if unit_f64(h) >= self.p_event {
            return;
        }
        let h_idx = splitmix64(h);
        let idx = (h_idx % acc.len() as u64) as usize;
        let bit = (splitmix64(h_idx) % T::BITS as u64) as u32;
        let old = acc[idx];
        let new = old.flip_bit(bit);
        acc[idx] = new;
        *st.per_block_injections.entry(site.block).or_insert(0) += 1;
        let record_key = (st.launch, key, ordinal);
        st.records.push((
            record_key,
            InjectionRecord {
                block: site.block,
                warp: site.warp,
                k_step: site.k_step,
                hit_checksum: site.is_checksum,
                elem_idx: idx,
                bit,
                width: T::BITS,
                magnitude: (new.to_f64() - old.to_f64()).abs(),
            },
        ));
    }
}

fn site_key(site: &MmaSite) -> SiteKey {
    (site.block, site.warp, site.k_step, site.is_checksum)
}

/// The top 53 bits of `h` as a uniform draw in `[0, 1)`.
fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl<T: Scalar> FaultHook<T> for Injector {
    fn post_mma(&self, site: &MmaSite, acc: &mut [T], _wn: usize) {
        self.corrupt_slice(site, acc, true);
    }

    fn post_fma(&self, site: &MmaSite, value: T) -> T {
        let mut one = [value];
        self.corrupt_slice(site, &mut one, false);
        one[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FaultTarget;

    fn site(block: (usize, usize), warp: usize, k: usize, cs: bool) -> MmaSite {
        MmaSite {
            block,
            warp,
            k_step: k,
            is_checksum: cs,
        }
    }

    #[test]
    fn planned_injection_fires_exactly_once() {
        let inj = Injector::planned(vec![PlannedInjection {
            block: (1, 2),
            warp: 0,
            k_step: 16,
            elem_idx: 3,
            bit: 30,
            target_checksum: false,
        }]);
        let mut acc = vec![1.0f32; 8];
        // wrong site: nothing
        <Injector as FaultHook<f32>>::post_mma(&inj, &site((0, 0), 0, 16, false), &mut acc, 4);
        assert_eq!(acc, vec![1.0; 8]);
        // right site: flips
        <Injector as FaultHook<f32>>::post_mma(&inj, &site((1, 2), 0, 16, false), &mut acc, 4);
        assert_ne!(acc[3], 1.0);
        // fires only once
        let snapshot = acc.clone();
        <Injector as FaultHook<f32>>::post_mma(&inj, &site((1, 2), 0, 16, false), &mut acc, 4);
        assert_eq!(acc, snapshot);
        assert_eq!(inj.injected_count(), 1);
        let rec = &inj.records()[0];
        assert_eq!(rec.bit, 30);
        assert_eq!(rec.elem_idx, 3);
        assert!(rec.magnitude > 0.0);
    }

    #[test]
    fn random_mode_respects_seu_cap() {
        let inj = Injector::new(InjectorConfig {
            schedule: InjectionSchedule::PerBlock { probability: 1.0 },
            model: SeuModel {
                target: FaultTarget::Any,
                max_per_block: 1,
            },
            seed: 7,
            kernel_time_hint_s: 1.0,
            blocks_hint: 1,
            events_per_block_hint: 1, // p_event = 1
        });
        let mut acc = vec![1.0f64; 4];
        for k in 0..10 {
            <Injector as FaultHook<f64>>::post_mma(&inj, &site((0, 0), 0, k, false), &mut acc, 2);
        }
        assert_eq!(inj.injected_count(), 1, "SEU cap = 1 per block");
        // a different block may also be struck
        let mut acc2 = vec![1.0f64; 4];
        <Injector as FaultHook<f64>>::post_mma(&inj, &site((0, 1), 0, 0, false), &mut acc2, 2);
        assert_eq!(inj.injected_count(), 2);
    }

    #[test]
    fn begin_launch_resets_cap() {
        let inj = Injector::new(InjectorConfig {
            schedule: InjectionSchedule::PerBlock { probability: 1.0 },
            model: SeuModel {
                target: FaultTarget::Any,
                max_per_block: 1,
            },
            seed: 3,
            kernel_time_hint_s: 1.0,
            blocks_hint: 1,
            events_per_block_hint: 1,
        });
        let mut acc = vec![2.0f32; 2];
        <Injector as FaultHook<f32>>::post_mma(&inj, &site((0, 0), 0, 0, false), &mut acc, 2);
        <Injector as FaultHook<f32>>::post_mma(&inj, &site((0, 0), 0, 8, false), &mut acc, 2);
        assert_eq!(inj.injected_count(), 1);
        inj.begin_launch();
        <Injector as FaultHook<f32>>::post_mma(&inj, &site((0, 0), 0, 16, false), &mut acc, 2);
        assert_eq!(inj.injected_count(), 2);
    }

    #[test]
    fn payload_only_model_skips_checksums() {
        let inj = Injector::new(InjectorConfig {
            schedule: InjectionSchedule::PerBlock { probability: 1.0 },
            model: SeuModel {
                target: FaultTarget::PayloadMma,
                max_per_block: 10,
            },
            seed: 1,
            kernel_time_hint_s: 1.0,
            blocks_hint: 1,
            events_per_block_hint: 1,
        });
        let mut acc = vec![1.0f32; 4];
        for k in 0..20 {
            <Injector as FaultHook<f32>>::post_mma(&inj, &site((0, 0), 0, k, true), &mut acc, 2);
        }
        assert_eq!(inj.injected_count(), 0);
    }

    #[test]
    fn payload_mma_target_skips_scalar_fma_stream() {
        let inj = Injector::new(InjectorConfig {
            schedule: InjectionSchedule::PerBlock { probability: 1.0 },
            model: SeuModel {
                target: FaultTarget::PayloadMma,
                max_per_block: 100,
            },
            seed: 2,
            kernel_time_hint_s: 1.0,
            blocks_hint: 1,
            events_per_block_hint: 1,
        });
        for k in 0..50 {
            let v = <Injector as FaultHook<f32>>::post_fma(&inj, &site((0, 0), 0, k, false), 3.25);
            assert_eq!(v, 3.25, "FMA results are outside the MMA stream");
        }
        assert_eq!(inj.injected_count(), 0);
        // ... while the MMA stream is eligible.
        let mut acc = vec![1.0f32; 4];
        <Injector as FaultHook<f32>>::post_mma(&inj, &site((0, 0), 0, 0, false), &mut acc, 2);
        assert_eq!(inj.injected_count(), 1);
    }

    #[test]
    fn simt_fma_target_skips_mma_stream() {
        let inj = Injector::new(InjectorConfig {
            schedule: InjectionSchedule::PerBlock { probability: 1.0 },
            model: SeuModel {
                target: FaultTarget::SimtFma,
                max_per_block: 100,
            },
            seed: 2,
            kernel_time_hint_s: 1.0,
            blocks_hint: 1,
            events_per_block_hint: 1,
        });
        let mut acc = vec![1.0f64; 4];
        for k in 0..20 {
            <Injector as FaultHook<f64>>::post_mma(&inj, &site((0, 0), 0, k, false), &mut acc, 2);
        }
        assert_eq!(inj.injected_count(), 0);
        let _ = <Injector as FaultHook<f64>>::post_fma(&inj, &site((0, 0), 0, 0, false), 1.5);
        assert_eq!(inj.injected_count(), 1);
    }

    #[test]
    fn off_schedule_never_injects() {
        let inj = Injector::new(InjectorConfig {
            schedule: InjectionSchedule::Off,
            model: SeuModel::default(),
            seed: 1,
            kernel_time_hint_s: 1.0,
            blocks_hint: 10,
            events_per_block_hint: 100,
        });
        assert_eq!(inj.p_event(), 0.0);
        let mut acc = vec![1.0f64; 4];
        for k in 0..50 {
            <Injector as FaultHook<f64>>::post_mma(&inj, &site((0, 0), 0, k, false), &mut acc, 2);
        }
        assert_eq!(inj.injected_count(), 0);
    }

    #[test]
    fn records_do_not_depend_on_block_interleaving() {
        let mk = || {
            Injector::new(InjectorConfig {
                schedule: InjectionSchedule::PerBlock { probability: 0.6 },
                model: SeuModel {
                    target: FaultTarget::Any,
                    max_per_block: 2,
                },
                seed: 9,
                kernel_time_hint_s: 1.0,
                blocks_hint: 1,
                events_per_block_hint: 8,
            })
        };
        // Each block runs its own events in program order: 3 warps x 4
        // k-steps, every site twice (like the update's per-sample FMAs).
        let block_events = |b: usize| -> Vec<MmaSite> {
            (0..24)
                .map(|e| site((b, 1), e / 8, e % 4, e % 8 >= 4))
                .collect()
        };
        let blocks = 6;
        let run = |order: &[(usize, usize)]| {
            let inj = mk();
            for _launch in 0..2 {
                inj.begin_launch();
                for &(b, e) in order {
                    let s = &block_events(b)[e];
                    if e % 3 == 0 {
                        let _ = <Injector as FaultHook<f32>>::post_fma(&inj, s, 2.5);
                    } else {
                        let mut acc = [1.5f64; 4];
                        <Injector as FaultHook<f64>>::post_mma(&inj, s, &mut acc, 2);
                    }
                }
            }
            inj.records()
        };
        // One block after another, vs. round-robin in reverse block order.
        let in_order: Vec<_> = (0..blocks)
            .flat_map(|b| (0..24).map(move |e| (b, e)))
            .collect();
        let interleaved: Vec<_> = (0..24)
            .flat_map(|e| (0..blocks).rev().map(move |b| (b, e)))
            .collect();
        let a = run(&in_order);
        assert!(!a.is_empty(), "the schedule strikes some events");
        assert_eq!(a, run(&interleaved));
    }

    #[test]
    fn reproducible_with_same_seed() {
        let mk = || {
            Injector::new(InjectorConfig {
                schedule: InjectionSchedule::PerBlock { probability: 0.5 },
                model: SeuModel {
                    target: FaultTarget::Any,
                    max_per_block: 5,
                },
                seed: 42,
                kernel_time_hint_s: 1.0,
                blocks_hint: 1,
                events_per_block_hint: 4,
            })
        };
        let run = |inj: &Injector| {
            let mut acc = vec![1.0f64; 8];
            for k in 0..64 {
                <Injector as FaultHook<f64>>::post_mma(
                    inj,
                    &site((0, 0), 0, k, false),
                    &mut acc,
                    4,
                );
            }
            inj.records()
        };
        let (a, b) = (run(&mk()), run(&mk()));
        assert_eq!(a, b);
    }
}

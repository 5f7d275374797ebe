//! Program-keyed plan cache: reuse one decoded [`TppRun`] across every
//! frame that carries the same program at the same packet position.
//!
//! Probe flows (RCP*, CONGA*, the WAN fan-out apps) stamp the *same* TPP
//! on every packet of a flow, so at any given switch the ingress parse
//! re-derives an identical plan — slot serialization and stage
//! assignment — thousands of times. The cache keys on a header prefix that
//! covers every byte the planner reads (`per_hop_len` rides along: the
//! planner stopped reading it when the plan stopped carrying a bounds
//! proof):
//!
//! * one byte of [`ExecOptions::max_instructions`] (the budget verdict),
//! * the first header byte with the `wrote`/reserved bits masked out
//!   (mode, reflect, and version feed the plan; `wrote` does not),
//! * header bytes 1–5 (`n_instr`, `mem_len`, `hop`, `sp`, `per_hop_len`),
//! * the instruction words themselves.
//!
//! The checksum and `encap_proto`/`app_id` bytes are excluded — the plan
//! never reads them. Matching is an **exact byte compare** (the hash only
//! picks the slot), so a collision can cost a miss but can never return
//! the wrong plan: behavior invariance is structural, not probabilistic.
//! Safety does not rest on that: a plan is a schedule, not a proof, and the
//! TCPU bounds-checks every access against the frame it runs on (§3.3).
//!
//! The cache is direct-mapped and bounded ([`PLAN_CACHE_SLOTS`]): an
//! insert into an occupied slot evicts its previous program, so memory is
//! O(1) per switch no matter how many distinct programs flow through.

use crate::pipeline::{PipelineConfig, TppRun};
use tpp_core::exec::ExecOptions;
use tpp_core::isa::{INSTR_BYTES, MAX_INSTRUCTIONS};
use tpp_core::wire::tpp::HEADER_LEN;
use tpp_core::wire::TppView;

/// Number of direct-mapped cache slots per switch. Sized for the working
/// set of concurrent probe programs a switch realistically sees (a few per
/// application), with headroom for hop/SP variants of each.
pub const PLAN_CACHE_SLOTS: usize = 64;

/// Maximum key length: options byte + masked header byte + header bytes
/// 1–5 + the instruction words.
const KEY_MAX: usize = 7 + MAX_INSTRUCTIONS * INSTR_BYTES;

/// Header-byte-0 bits the planner never reads: `wrote` (0x02) and the
/// reserved bit (0x01).
const KEY_BYTE0_MASK: u8 = 0xFC;

#[derive(Clone, Copy)]
struct Entry {
    key: [u8; KEY_MAX],
    key_len: u8,
    /// The cached plan, pre-execution, with `section == 0`; hits patch the
    /// frame's actual section offset in.
    run: TppRun,
}

/// Hit/miss/eviction counters, surfaced per switch and aggregated into
/// `NetStats` by the simulator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups answered from a cached plan.
    pub hits: u64,
    /// Lookups that had to plan afresh (including uncacheable programs).
    pub misses: u64,
    /// Misses that overwrote a different resident program.
    pub evictions: u64,
}

/// A bounded, direct-mapped cache of planned [`TppRun`] templates (see the
/// module docs for the key and the invariance argument).
pub struct PlanCache {
    slots: Box<[Option<Entry>]>,
    stats: PlanCacheStats,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache {
            slots: vec![None; PLAN_CACHE_SLOTS].into_boxed_slice(),
            stats: PlanCacheStats::default(),
        }
    }
}

/// FNV-1a over the key bytes — only used to pick the slot; equality is
/// decided by the exact byte compare.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl PlanCache {
    /// Total slots (the bound on resident plans).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Slots currently holding a plan.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(Option::is_none)
    }

    /// Counters since construction.
    pub fn stats(&self) -> PlanCacheStats {
        self.stats
    }

    /// Plan `view` (located at byte offset `section` of its frame, with
    /// `section_bytes` its validated section bytes), reusing a cached plan
    /// when this exact program/header prefix was planned before.
    ///
    /// Exactly equivalent to [`TppRun::plan`] on every call: a hit returns
    /// a byte-identical pre-execution plan (only the `section` offset is
    /// patched), which the plan-determinism unit tests pin.
    pub fn plan(
        &mut self,
        view: &TppView<'_>,
        section_bytes: &[u8],
        section: usize,
        opts: &ExecOptions,
        cfg: &PipelineConfig,
    ) -> TppRun {
        let n = view.n_instr();
        if n > MAX_INSTRUCTIONS || n > opts.max_instructions {
            // Rejected plans are trivial to rebuild (no decode)
            // and their instruction words may exceed the key budget.
            self.stats.misses += 1;
            return TppRun::plan(view, section, opts, cfg);
        }
        let mut key = [0u8; KEY_MAX];
        key[0] = u8::try_from(opts.max_instructions).unwrap_or(u8::MAX);
        key[1] = section_bytes[0] & KEY_BYTE0_MASK;
        key[2..7].copy_from_slice(&section_bytes[1..6]);
        let ib = n * INSTR_BYTES;
        key[7..7 + ib].copy_from_slice(&section_bytes[HEADER_LEN..HEADER_LEN + ib]);
        let key_len = 7 + ib;
        let k = &key[..key_len];

        let slot = (fnv1a(k) % self.slots.len() as u64) as usize;
        if let Some(e) = &self.slots[slot] {
            if usize::from(e.key_len) == key_len && &e.key[..key_len] == k {
                self.stats.hits += 1;
                let mut run = e.run;
                run.section = section;
                return run;
            }
        }
        self.stats.misses += 1;
        if self.slots[slot].is_some() {
            self.stats.evictions += 1;
        }
        let run = TppRun::plan(view, section, opts, cfg);
        let mut template = run;
        template.section = 0;
        self.slots[slot] = Some(Entry { key, key_len: key_len as u8, run: template });
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_core::asm::TppBuilder;
    use tpp_core::wire::Tpp;

    fn plan_fresh(bytes: &[u8], opts: &ExecOptions, cfg: &PipelineConfig) -> TppRun {
        let (view, _) = TppView::parse(bytes).unwrap();
        TppRun::plan(&view, 0, opts, cfg)
    }

    fn probe(hops: u8) -> Tpp {
        TppBuilder::stack_mode()
            .push_m("Switch:SwitchID")
            .unwrap()
            .push_m("Queue:QueueOccupancy")
            .unwrap()
            .hops(hops as usize)
            .build()
            .unwrap()
    }

    #[test]
    fn hit_returns_byte_identical_plan() {
        let opts = ExecOptions::default();
        let cfg = PipelineConfig::default();
        let mut cache = PlanCache::default();
        let bytes = probe(3).serialize();
        let (view, _) = TppView::parse(&bytes).unwrap();

        let miss = cache.plan(&view, &bytes, 14, &opts, &cfg);
        assert_eq!(cache.stats(), PlanCacheStats { hits: 0, misses: 1, evictions: 0 });
        let hit = cache.plan(&view, &bytes, 42, &opts, &cfg);
        assert_eq!(cache.stats().hits, 1);

        let mut fresh = plan_fresh(&bytes, &opts, &cfg);
        fresh.section = 14;
        assert_eq!(miss, fresh, "miss path must equal a fresh plan");
        fresh.section = 42;
        assert_eq!(hit, fresh, "hit must be byte-identical up to the section offset");
    }

    #[test]
    fn header_prefix_changes_miss() {
        // Same program at a different hop/SP position: the plan (slots, hop
        // snapshot) differs, so the cache must not conflate them.
        let opts = ExecOptions::default();
        let cfg = PipelineConfig::default();
        let mut cache = PlanCache::default();
        let mut tpp = probe(3);
        let a = tpp.serialize();
        tpp.hop = 1;
        tpp.sp = 2;
        let b = tpp.serialize();

        let (va, _) = TppView::parse(&a).unwrap();
        let (vb, _) = TppView::parse(&b).unwrap();
        let ra = cache.plan(&va, &a, 0, &opts, &cfg);
        let rb = cache.plan(&vb, &b, 0, &opts, &cfg);
        assert_eq!(cache.stats().hits, 0, "distinct hop/SP prefixes must not hit");
        assert_eq!(ra, plan_fresh(&a, &opts, &cfg));
        assert_eq!(rb, plan_fresh(&b, &opts, &cfg));
    }

    #[test]
    fn wrote_bit_does_not_key() {
        // The `wrote` flag is execution residue the planner ignores; frames
        // differing only in it share one cached plan.
        let opts = ExecOptions::default();
        let cfg = PipelineConfig::default();
        let mut cache = PlanCache::default();
        let mut tpp = probe(2);
        let a = tpp.serialize();
        tpp.wrote = true;
        let b = tpp.serialize();
        let (va, _) = TppView::parse(&a).unwrap();
        let (vb, _) = TppView::parse(&b).unwrap();
        cache.plan(&va, &a, 0, &opts, &cfg);
        cache.plan(&vb, &b, 0, &opts, &cfg);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn budget_change_does_not_reuse_stale_verdict() {
        let cfg = PipelineConfig::default();
        let mut cache = PlanCache::default();
        let tpp = TppBuilder::stack_mode()
            .push_m("Switch:SwitchID")
            .unwrap()
            .push_m("Queue:QueueOccupancy")
            .unwrap()
            .push_m("Switch:Version")
            .unwrap()
            .hops(2)
            .build()
            .unwrap();
        let bytes = tpp.serialize();
        let (view, _) = TppView::parse(&bytes).unwrap();
        let generous = ExecOptions::default();
        let strict = ExecOptions { max_instructions: 2, ..ExecOptions::default() };
        let accepted = cache.plan(&view, &bytes, 0, &generous, &cfg);
        assert!(!accepted.rejected);
        let rejected = cache.plan(&view, &bytes, 0, &strict, &cfg);
        assert!(rejected.rejected, "budget is part of the key");
    }

    #[test]
    fn bounded_size_with_eviction() {
        // More distinct programs than slots: occupancy stays bounded,
        // evictions are counted, and an evicted program re-planned later is
        // still byte-identical to a fresh plan.
        let opts = ExecOptions::default();
        let cfg = PipelineConfig::default();
        let mut cache = PlanCache::default();
        // Vary a *keyed* header byte (hop) across every frame: memory
        // contents are deliberately unkeyed, so they would all share one
        // slot. Planning (not executing) an out-of-range hop is fine — the
        // plan simply carries the graceful-skip verdict.
        let frames: Vec<Vec<u8>> = (1..=3 * PLAN_CACHE_SLOTS as u8 / 2)
            .map(|h| {
                let mut t = probe(4);
                t.hop = h;
                t.serialize()
            })
            .collect();
        for f in &frames {
            let (view, _) = TppView::parse(f).unwrap();
            cache.plan(&view, f, 0, &opts, &cfg);
        }
        assert!(cache.len() <= cache.capacity());
        assert_eq!(cache.capacity(), PLAN_CACHE_SLOTS);
        let s = cache.stats();
        assert_eq!(s.misses, frames.len() as u64);
        assert!(s.evictions > 0, "more programs than slots must evict");

        // Every program — evicted or resident — still plans correctly.
        for f in &frames {
            let (view, _) = TppView::parse(f).unwrap();
            assert_eq!(cache.plan(&view, f, 0, &opts, &cfg), plan_fresh(f, &opts, &cfg));
        }
    }

    #[test]
    fn over_budget_program_bypasses_cache() {
        let opts = ExecOptions::default();
        let cfg = PipelineConfig::default();
        let mut cache = PlanCache::default();
        let sid = tpp_core::addr::resolve_mnemonic("Switch:SwitchID").unwrap();
        let tpp = Tpp {
            instrs: vec![tpp_core::isa::Instruction::push(sid); 6],
            memory: vec![0; 32],
            ..Tpp::default()
        };
        let bytes = tpp.serialize();
        let (view, _) = TppView::parse(&bytes).unwrap();
        let run = cache.plan(&view, &bytes, 0, &opts, &cfg);
        assert!(run.rejected);
        assert!(cache.is_empty(), "rejected programs are not cached");
    }
}

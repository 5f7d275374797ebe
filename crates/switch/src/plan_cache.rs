//! Program-keyed plan cache: reuse one decoded [`TppRun`] across every
//! frame that carries the same program at the same packet position.
//!
//! Probe flows (RCP*, CONGA*, the WAN fan-out apps) stamp the *same* TPP
//! on every packet of a flow, so at any given switch the ingress parse
//! re-derives an identical plan — slot serialization, stage assignment and
//! schedule — thousands of times. The cache keys on a header prefix that
//! covers every byte the planner reads (`per_hop_len` rides along: the
//! planner stopped reading it when the plan stopped carrying a bounds
//! proof):
//!
//! * the first header byte with the `wrote`/reserved bits masked out
//!   (mode, reflect, and version feed the plan; `wrote` does not),
//! * header bytes 1–5 (`n_instr`, `mem_len`, `hop`, `sp`, `per_hop_len`),
//! * the instruction words themselves.
//!
//! The checksum and `encap_proto`/`app_id` bytes are excluded — the plan
//! never reads them — and so are the execution options: the instruction
//! budget is the architectural [`MAX_INSTRUCTIONS`], over which a program is
//! never cached, and the write kill-switch is read per frame. No key is
//! materialised: the header bytes are read off the section as one `u64`
//! (the *head*), the instruction words as `u32`s, and an entry stores
//! exactly those. Matching is an **exact compare** of the head and of every
//! word (the hash only picks the slots), so a collision can cost a miss but
//! can never return the wrong plan: behavior invariance is structural, not
//! probabilistic.
//! Safety does not rest on that: a plan is a schedule, not a proof, and the
//! TCPU bounds-checks every access against the frame it runs on (§3.3).
//!
//! The hash is a sum of products, each key word times its own odd constant,
//! and one folded multiply over the sum: no chain of dependent multiplies
//! and no byte loop on the all-hit path. Bit-fields of it pick the slots by
//! shift and mask ([`PLAN_CACHE_SLOTS`] is a power of two), so there is no
//! divide either.
//!
//! Every key has **eight home slots**, eight bit-fields of the one hash,
//! tried in order: a lookup hits in any of them, an insert takes the first
//! that is vacant and evicts the first when none is. A slot is never vacated,
//! so a lookup stops at the first vacant home, and on a switch that sees a
//! handful of programs nearly every hit is the first probe. The number is
//! what residency takes. With one home, the seven programs of a busy switch
//! collide somewhere in 64 slots with probability 29 % whatever the
//! (uniform) hash, and two programs that share a slot replan each other on
//! every frame. The apps' working set at a switch in mid-fabric is those
//! seven at each of five arrival hops, 35 keys for 64 slots: resident all at
//! once under 3 % of hash functions with two homes, 55 % with four, 97 % with
//! eight (over 2,000 random constant sets, on those 35 keys). A unit test
//! pins that it holds for the constants below.
//!
//! The cache is bounded ([`PLAN_CACHE_SLOTS`]): an insert that finds all its
//! homes occupied evicts a previous program, so memory is O(1) per switch no
//! matter how many distinct programs flow through.

use crate::pipeline::{PipelineConfig, TppRun};
use tpp_core::exec::ExecOptions;
use tpp_core::isa::{INSTR_BYTES, MAX_INSTRUCTIONS};
use tpp_core::wire::tpp::HEADER_LEN;
use tpp_core::wire::TppView;

/// Number of cache slots per switch. Sized for the working set of
/// concurrent probe programs a switch realistically sees (a few per
/// application), with headroom for hop/SP variants of each.
pub const PLAN_CACHE_SLOTS: usize = 64;

/// Bits of the hash one home slot takes.
const SLOT_BITS: u32 = PLAN_CACHE_SLOTS.trailing_zeros();
/// Home slots of a key: that many bit-fields of its hash, tried in order.
const HOMES: u32 = 8;
const _: () = assert!(PLAN_CACHE_SLOTS.is_power_of_two() && HOMES * SLOT_BITS <= u64::BITS);

/// What of the section's first eight bytes, read little-endian, is keyed:
/// header bytes 0–5 less the bits of byte 0 the planner never reads, `wrote`
/// (0x02) and the reserved bit (0x01). Bytes 6–7 are the checksum.
const HEAD_MASK: u64 = 0x0000_FFFF_FFFF_FFFC;

/// The multiplier of the final fold (the halves of a 128-bit product xored),
/// after which every bit-field of the hash depends on every key bit.
const FOLD: u64 = 0x8EBC_6AF0_9C88_C6E3;

/// One odd multiplier for the head and one per instruction word.
const MULTIPLIERS: [u64; 1 + MAX_INSTRUCTIONS] = [
    0x9E37_79B9_7F4A_7C15,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0xD6E8_FEB8_6659_FD93,
    0xA076_1D64_78BD_642F,
    0xE703_7ED1_A0B4_28DB,
];

#[derive(Clone, Copy)]
struct Entry {
    head: u64,
    /// The first `n_instr` (a byte of `head`) are the key; the rest are zero.
    words: [u32; MAX_INSTRUCTIONS],
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

/// A bounded cache of planned [`TppRun`] templates (see the module docs for
/// the key, the slots and the invariance argument).
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

impl PlanCache {
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
        if n > MAX_INSTRUCTIONS {
            // Rejected plans are trivial to rebuild (no decode)
            // and their instruction words may exceed the key budget.
            self.stats.misses += 1;
            return TppRun::plan(view, section, opts, cfg);
        }
        let first8: [u8; 8] = section_bytes[..8].try_into().expect("an 8-byte slice");
        let head = u64::from_le_bytes(first8) & HEAD_MASK;
        let program: &[u8] = &section_bytes[HEADER_LEN..HEADER_LEN + n * INSTR_BYTES];
        let word = |i: usize| {
            let w: [u8; INSTR_BYTES] =
                program[i * INSTR_BYTES..][..INSTR_BYTES].try_into().expect("one word");
            u32::from_le_bytes(w)
        };

        let mut sum = head.wrapping_mul(MULTIPLIERS[0]);
        for i in 0..n {
            sum = sum.wrapping_add(u64::from(word(i)).wrapping_mul(MULTIPLIERS[1 + i]));
        }
        let wide = u128::from(sum) * u128::from(FOLD);
        let hash = (wide >> u64::BITS) as u64 ^ wide as u64;
        let home = |k: u32| (hash >> (k * SLOT_BITS)) as usize & (PLAN_CACHE_SLOTS - 1);

        let mut free = None;
        for k in 0..HOMES {
            match &self.slots[home(k)] {
                Some(e) if e.head == head && (0..n).all(|i| e.words[i] == word(i)) => {
                    self.stats.hits += 1;
                    let mut run = e.run;
                    run.section = section;
                    return run;
                }
                Some(_) => {}
                // A slot is never vacated and an insert takes the first free
                // home, so the key is in no later home either.
                None => {
                    free = Some(home(k));
                    break;
                }
            }
        }
        self.stats.misses += 1;
        let slot = free.unwrap_or_else(|| {
            self.stats.evictions += 1;
            home(0)
        });
        let run = TppRun::plan(view, section, opts, cfg);
        let words = std::array::from_fn(|i| if i < n { word(i) } else { 0 });
        let mut template = run;
        template.section = 0;
        self.slots[slot] = Some(Entry { head, words, run: template });
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_core::asm::TppBuilder;
    use tpp_core::wire::Tpp;

    impl PlanCache {
        /// Total slots (the bound on resident plans).
        fn capacity(&self) -> usize {
            self.slots.len()
        }

        /// Slots currently holding a plan.
        fn len(&self) -> usize {
            self.slots.iter().filter(|s| s.is_some()).count()
        }

        fn is_empty(&self) -> bool {
            self.slots.iter().all(Option::is_none)
        }
    }

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

    // `app_probes()`: the seven programs `crates/apps` sends.
    include!("../../../tests/support/app_probes.rs");

    #[test]
    fn the_apps_working_set_is_resident_all_at_once() {
        // What a switch in the middle of the fabric sees: every app's program
        // at every arrival hop of a five-hop path, 35 distinct keys. Each
        // must still be cached when it comes round again, or two of them
        // would replan each other on every frame.
        const HOPS: usize = 5;
        let opts = ExecOptions::default();
        let cfg = PipelineConfig::default();
        let mut frames: Vec<Vec<u8>> = Vec::new();
        for probe in app_probes() {
            for at in 0..HOPS {
                let mut t = probe.compile_hops(HOPS).unwrap();
                t.hop = at as u8;
                if t.mode == tpp_core::wire::AddrMode::Stack {
                    t.sp = (at * probe.words_per_hop()) as u8;
                }
                frames.push(t.serialize());
            }
        }
        assert!(frames.len() >= 35);
        let mut cache = PlanCache::default();
        for pass in 0..3 {
            for f in &frames {
                let (view, _) = TppView::parse(f).unwrap();
                assert_eq!(cache.plan(&view, f, 14, &opts, &cfg).section, 14);
            }
            let want = PlanCacheStats {
                hits: pass * frames.len() as u64,
                misses: frames.len() as u64,
                evictions: 0,
            };
            assert_eq!(cache.stats(), want, "pass {pass}");
        }
        assert_eq!(cache.len(), frames.len());
    }

    #[test]
    fn every_keyed_bit_misses_and_no_other_bit_does() {
        let opts = ExecOptions::default();
        let cfg = PipelineConfig::default();
        let bytes = app_probes()[1].compile_hops(3).unwrap().serialize();
        let (view, _) = TppView::parse(&bytes).unwrap();
        let program_end = HEADER_LEN + view.n_instr() * INSTR_BYTES;
        assert_eq!(view.n_instr(), MAX_INSTRUCTIONS, "every key word in use");
        // The key is read off `section_bytes`, so the same validated view
        // serves every flipped copy (most would not parse).
        let hits_after_flip = |byte: usize, bit: u8| {
            let mut cache = PlanCache::default();
            cache.plan(&view, &bytes, 0, &opts, &cfg);
            let mut flipped = bytes.clone();
            flipped[byte] ^= 1 << bit;
            cache.plan(&view, &flipped, 0, &opts, &cfg);
            cache.stats().hits
        };
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                // Version, mode and reflect of byte 0, bytes 1-5, the program.
                let keyed = match byte {
                    0 => bit >= 2,
                    1..=5 => true,
                    _ => (HEADER_LEN..program_end).contains(&byte),
                };
                // `wrote`, reserved, checksum, encap_proto, app_id, memory.
                assert_eq!(hits_after_flip(byte, bit), u64::from(!keyed), "byte {byte} bit {bit}");
            }
        }
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

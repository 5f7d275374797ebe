//! The TPP control plane (TPP-CP, §4.1) and security policy (§4.3).
//!
//! TPP-CP is "a central entity to keep track of running TPP applications
//! and manage switch memory". [`CentralCp`] allocates application IDs and
//! exclusive switch-memory segments (the x86-GDT-like access-control
//! table); [`Policy`] is the per-host enforcement: before installation a
//! TPP goes through the static verifier ([`mod@tpp_core::verify`]) against the
//! owning app's segments, once, and a hypervisor-style mode can reject any
//! TPP containing writes. Acceptance buys nothing at a switch, which
//! bounds-checks every access whoever vetted the program (§3.3).

use std::collections::BTreeMap;

use tpp_core::addr::{link_ns, Address, Namespace};
use tpp_core::analysis::{writes_switch_memory, Segment};
use tpp_core::verify::{verify, Diagnostic, Verdict, VerifyOptions};
use tpp_core::wire::Tpp;

/// Errors from TPP-CP API calls.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CpError {
    /// Write instructions are disabled for this app/host (§4.3).
    WritesForbidden,
    UnknownApp(u16),
    /// No free `AppSpecific` registers to satisfy an allocation.
    OutOfMemory,
    /// The static verifier denied the program (over budget, outside the
    /// app's segments, unsafe packet-memory access, ...); carries the
    /// deny-class diagnostics.
    Rejected(Vec<Diagnostic>),
}

impl std::fmt::Display for CpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CpError::WritesForbidden => write!(f, "write instructions forbidden"),
            CpError::UnknownApp(id) => write!(f, "unknown app {id}"),
            CpError::OutOfMemory => write!(f, "no free per-link registers"),
            CpError::Rejected(diags) => {
                write!(f, "verifier rejected the TPP: ")?;
                for (i, d) in diags.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{d}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for CpError {}

/// One registered application and its memory grant.
#[derive(Clone, Debug)]
pub struct AppRecord {
    pub app_id: u16,
    pub name: String,
    pub segments: Vec<Segment>,
    /// First `AppSpecific` register granted (with `n_regs`, the exclusive
    /// per-link block), so re-registration can return the original grant.
    pub first_reg: u16,
    pub n_regs: u16,
}

/// The central TPP-CP: application registry and switch-memory allocator.
///
/// Memory allocation is modeled on the paper's RCP example: applications
/// ask for a number of per-link `AppSpecific` registers, which they then
/// own exclusively on every link.
#[derive(Debug)]
pub struct CentralCp {
    apps: BTreeMap<u16, AppRecord>,
    next_app_id: u16,
    /// Next free `AppSpecific` register index (allocated contiguously).
    next_app_reg: u16,
}

impl Default for CentralCp {
    fn default() -> Self {
        // Not derived: app IDs start at 1 (0 marks "unassigned" on the wire).
        CentralCp::new()
    }
}

/// Read-only statistics every app may query (Table 2): the whole address
/// space *except* the writable app registers owned by others.
fn read_everything_segment() -> Segment {
    Segment::read_only(Address::new(0), Address::new(0xFFFF))
}

impl CentralCp {
    pub fn new() -> Self {
        CentralCp { apps: BTreeMap::new(), next_app_id: 1, next_app_reg: 0 }
    }

    /// Register an application that only reads network state.
    ///
    /// Idempotent per name: re-registering returns the existing app ID.
    pub fn register_app(&mut self, name: &str) -> u16 {
        self.register_app_with_regs(name, 0).expect("zero-register registration cannot fail").0
    }

    /// Register an application and grant it `n_regs` exclusive per-link
    /// `AppSpecific` registers (read-write). Returns `(app_id, first_reg)`.
    ///
    /// Idempotent per name: re-registering an existing name returns its
    /// original `(app_id, first_reg)` grant instead of minting a duplicate
    /// (the requested `n_regs` is ignored in that case).
    pub fn register_app_with_regs(
        &mut self,
        name: &str,
        n_regs: u16,
    ) -> Result<(u16, u16), CpError> {
        if let Some(existing) = self.apps.values().find(|a| a.name == name) {
            return Ok((existing.app_id, existing.first_reg));
        }
        if self.next_app_reg + n_regs > link_ns::APP_COUNT {
            return Err(CpError::OutOfMemory);
        }
        let first = self.next_app_reg;
        self.next_app_reg += n_regs;
        let app_id = self.next_app_id;
        self.next_app_id += 1;

        let mut segments = vec![read_everything_segment()];
        if n_regs > 0 {
            // Grant the registers in both the per-packet [Link:...] segment
            // and every explicit [Link$p:...] block.
            segments.push(Segment::read_write(
                Namespace::CurrentLink.at(link_ns::APP_BASE + first),
                Namespace::CurrentLink.at(link_ns::APP_BASE + first + n_regs - 1),
            ));
            for p in 0..tpp_core::addr::layout::MAX_PORTS {
                segments.push(Segment::read_write(
                    Namespace::Link(p as u8).at(link_ns::APP_BASE + first),
                    Namespace::Link(p as u8).at(link_ns::APP_BASE + first + n_regs - 1),
                ));
            }
        }
        self.apps.insert(
            app_id,
            AppRecord { app_id, name: name.to_string(), segments, first_reg: first, n_regs },
        );
        Ok((app_id, first))
    }

    /// Grant an app write access to additional addresses (e.g. stage SRAM
    /// for a measurement app, or `[PacketMetadata:OutputPort]` for a
    /// rerouting app).
    pub fn grant(&mut self, app_id: u16, segment: Segment) -> Result<(), CpError> {
        let app = self.apps.get_mut(&app_id).ok_or(CpError::UnknownApp(app_id))?;
        app.segments.push(segment);
        Ok(())
    }

    /// Build the per-host enforcement view for one app.
    pub fn policy_for(&self, app_id: u16, drop_writes: bool) -> Result<Policy, CpError> {
        let app = self.apps.get(&app_id).ok_or(CpError::UnknownApp(app_id))?;
        Ok(Policy { app_id, segments: app.segments.clone(), drop_writes })
    }
}

/// Per-host, per-app static enforcement (§4.1, §4.3).
#[derive(Clone, Debug)]
pub struct Policy {
    pub app_id: u16,
    pub segments: Vec<Segment>,
    /// Hypervisor mode: "drop any TPPs with write instructions" (§4.3).
    pub drop_writes: bool,
}

impl Policy {
    /// Run the abstract-interpretation verifier against this app's segment
    /// table: the segment grants plus packet-memory safety (stack and
    /// hop-window bounds, capacity, uninitialized reads).
    pub fn verify(&self, tpp: &Tpp) -> Verdict {
        verify(tpp, VerifyOptions { hops: None, segments: Some(&self.segments) })
    }

    /// Validate a TPP before installation (`add_tpp` returns failure and
    /// "the TPP is never installed" on violation, §4.1): hypervisor mode,
    /// then [`Policy::verify`]. Accepted means the verdict has no denial.
    pub fn validate(&self, tpp: &Tpp) -> Result<(), CpError> {
        if self.drop_writes && writes_switch_memory(&tpp.instrs) {
            return Err(CpError::WritesForbidden);
        }
        let verdict = self.verify(tpp);
        if verdict.passed() {
            Ok(())
        } else {
            Err(CpError::Rejected(verdict.denials().cloned().collect()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_core::addr::resolve_mnemonic;
    use tpp_core::asm::{assemble, TppBuilder};

    #[test]
    fn register_and_allocate_registers() {
        let mut cp = CentralCp::new();
        let (rcp, first) = cp.register_app_with_regs("rcp", 2).unwrap();
        assert_eq!(first, 0);
        let (other, second) = cp.register_app_with_regs("conga", 1).unwrap();
        assert_ne!(rcp, other);
        assert_eq!(second, 2); // exclusive, contiguous
    }

    #[test]
    fn register_app_is_idempotent_per_name() {
        let mut cp = CentralCp::default(); // Default == new(): IDs start at 1
        let (a, first) = cp.register_app_with_regs("rcp", 2).unwrap();
        assert_eq!(a, 1);
        let (b, first2) = cp.register_app_with_regs("rcp", 4).unwrap();
        assert_eq!((a, first), (b, first2));
        assert_eq!(cp.register_app("rcp"), a);
        // A different name still gets a fresh grant after the first block.
        let (_, f) = cp.register_app_with_regs("mon", 1).unwrap();
        assert_eq!(f, 2);
    }

    #[test]
    fn allocation_exhausts() {
        let mut cp = CentralCp::new();
        assert!(cp.register_app_with_regs("big", 32).is_ok());
        assert_eq!(cp.register_app_with_regs("more", 1), Err(CpError::OutOfMemory));
    }

    #[test]
    fn rcp_tpp_validates_under_its_own_policy() {
        let mut cp = CentralCp::new();
        let (app_id, first) = cp.register_app_with_regs("rcp", 2).unwrap();
        assert_eq!(first, 0);
        let policy = cp.policy_for(app_id, false).unwrap();
        // The §2.2 phase-3 update TPP writes AppSpecific_0/_1.
        let update = assemble(
            "
            .mode hop
            .perhop 12
            .hops 2
            CSTORE [Link:AppSpecific_0], [Packet:Hop[0]], [Packet:Hop[1]]
            STORE [Link:AppSpecific_1], [Packet:Hop[2]]
            ",
        )
        .unwrap();
        policy.validate(&update).unwrap();
    }

    #[test]
    fn foreign_registers_rejected() {
        let mut cp = CentralCp::new();
        let (rcp, _) = cp.register_app_with_regs("rcp", 2).unwrap(); // owns regs 0-1
        let (mon, _) = cp.register_app_with_regs("mon", 1).unwrap(); // owns reg 2
        let rcp_update = assemble(
            "
            .mode hop
            .perhop 8
            .hops 2
            STORE [Link:AppSpecific_1], [Packet:Hop[0]]
            ",
        )
        .unwrap();
        // rcp can write reg 1; mon cannot.
        cp.policy_for(rcp, false).unwrap().validate(&rcp_update).unwrap();
        let err = cp.policy_for(mon, false).unwrap().validate(&rcp_update);
        let Err(CpError::Rejected(diags)) = &err else { panic!("expected Rejected, got {err:?}") };
        assert!(diags.iter().any(|d| d.kind.code() == "E-POLICY"), "{err:?}");
    }

    #[test]
    fn reads_always_allowed() {
        let mut cp = CentralCp::new();
        let app = cp.register_app("ndb");
        let probe = assemble(
            "
            PUSH [Switch:ID]
            PUSH [PacketMetadata:MatchedEntryID]
            PUSH [PacketMetadata:InputPort]
            ",
        )
        .unwrap();
        cp.policy_for(app, false).unwrap().validate(&probe).unwrap();
        // Even in drop-writes mode, pure reads pass.
        cp.policy_for(app, true).unwrap().validate(&probe).unwrap();
    }

    #[test]
    fn hypervisor_mode_drops_writes() {
        let mut cp = CentralCp::new();
        let (app, _) = cp.register_app_with_regs("rcp", 2).unwrap();
        let update =
            assemble(".mode hop\n.perhop 8\n.hops 1\nSTORE [Link:AppSpecific_0], [Packet:Hop[0]]")
                .unwrap();
        assert_eq!(
            cp.policy_for(app, true).unwrap().validate(&update),
            Err(CpError::WritesForbidden)
        );
    }

    #[test]
    fn grant_extends_permissions() {
        let mut cp = CentralCp::new();
        let app = cp.register_app("rerouter");
        let reroute = TppBuilder::hop_mode(1)
            .store(resolve_mnemonic("PacketMetadata:OutputPort").unwrap(), 0)
            .hops(1)
            .build()
            .unwrap();
        assert!(cp.policy_for(app, false).unwrap().validate(&reroute).is_err());
        let out_port = tpp_core::addr::resolve_mnemonic("PacketMetadata:OutputPort").unwrap();
        cp.grant(app, Segment::read_write(out_port, out_port)).unwrap();
        cp.policy_for(app, false).unwrap().validate(&reroute).unwrap();
    }

    #[test]
    fn oversized_tpp_rejected() {
        let mut cp = CentralCp::new();
        let app = cp.register_app("reader");
        let cp_policy = cp.policy_for(app, false).unwrap();
        let mut t = TppBuilder::stack_mode().push_m("Switch:SwitchID").unwrap().build().unwrap();
        let i = t.instrs[0];
        t.instrs = vec![i; 6];
        let err = cp_policy.validate(&t);
        let Err(CpError::Rejected(diags)) = &err else { panic!("expected Rejected, got {err:?}") };
        assert!(diags.iter().any(|d| d.kind.code() == "E-BUDGET"), "{err:?}");
    }

    #[test]
    fn unknown_app() {
        let cp = CentralCp::new();
        assert_eq!(cp.policy_for(42, false).err(), Some(CpError::UnknownApp(42)));
    }

    #[test]
    fn verifier_backed_policy_returns_token_for_owned_writes() {
        let mut cp = CentralCp::new();
        let (app_id, _) = cp.register_app_with_regs("rcp", 2).unwrap();
        let update = assemble(
            "
            .mode hop
            .perhop 12
            .hops 2
            CSTORE [Link:AppSpecific_0], [Packet:Hop[0]], [Packet:Hop[1]]
            STORE [Link:AppSpecific_1], [Packet:Hop[2]]
            ",
        )
        .unwrap();
        let policy = cp.policy_for(app_id, false).unwrap();
        assert_eq!(policy.validate(&update), Ok(()));
    }

    #[test]
    fn verifier_backed_policy_rejects_foreign_registers() {
        let mut cp = CentralCp::new();
        let (_, _) = cp.register_app_with_regs("rcp", 2).unwrap(); // owns regs 0-1
        let (mon, _) = cp.register_app_with_regs("mon", 1).unwrap(); // owns reg 2
        let rcp_update = assemble(
            "
            .mode hop
            .perhop 8
            .hops 2
            STORE [Link:AppSpecific_1], [Packet:Hop[0]]
            ",
        )
        .unwrap();
        let err = cp.policy_for(mon, false).unwrap().validate(&rcp_update);
        match err {
            Err(CpError::Rejected(diags)) => {
                assert!(!diags.is_empty());
                assert!(diags.iter().all(|d| d.severity() == tpp_core::verify::Severity::Deny));
            }
            other => panic!("expected Rejected, got {other:?}"),
        }
    }

    #[test]
    fn verifier_backed_policy_keeps_hypervisor_mode() {
        let mut cp = CentralCp::new();
        let (app, _) = cp.register_app_with_regs("rcp", 2).unwrap();
        let update =
            assemble(".mode hop\n.perhop 8\n.hops 1\nSTORE [Link:AppSpecific_0], [Packet:Hop[0]]")
                .unwrap();
        assert_eq!(
            cp.policy_for(app, true).unwrap().validate(&update),
            Err(CpError::WritesForbidden)
        );
    }
}

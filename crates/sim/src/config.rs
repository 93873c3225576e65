//! Simulator configuration (Table 1 of the paper).

use lrp_baselines::bb::BbConfig;
use lrp_baselines::{BufferedBarrier, Nop, PersistBuffer, StrictBarrier};
use lrp_core::{Lrp, LrpConfig, PersistMech};

/// Which persistency-enforcement mechanism attaches to the L1s (§6.2's
/// comparison points).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mechanism {
    /// Volatile execution (normalization baseline).
    Nop,
    /// Strict full barrier.
    Sb,
    /// Buffered full barrier (state of the art).
    Bb,
    /// Lazy Release Persistency (this paper).
    Lrp,
    /// Persist-buffer (delegated ordering) design — extra comparison
    /// point modeling the other school of §2.2.1.
    Dpo,
}

impl Mechanism {
    /// The paper's four comparison points, in figure order.
    pub const ALL: [Mechanism; 4] = [Mechanism::Nop, Mechanism::Sb, Mechanism::Bb, Mechanism::Lrp];

    /// All mechanisms including the extra persist-buffer point.
    pub const EXTENDED: [Mechanism; 5] = [
        Mechanism::Nop,
        Mechanism::Sb,
        Mechanism::Bb,
        Mechanism::Lrp,
        Mechanism::Dpo,
    ];

    /// Display name used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Mechanism::Nop => "nop",
            Mechanism::Sb => "sb",
            Mechanism::Bb => "bb",
            Mechanism::Lrp => "lrp",
            Mechanism::Dpo => "dpo",
        }
    }

    /// Parses a figure name back into a mechanism.
    pub fn from_name(name: &str) -> Option<Mechanism> {
        Mechanism::EXTENDED.into_iter().find(|m| m.name() == name)
    }

    /// The persist-ordering discipline this mechanism promises, i.e. the
    /// partial order its crash cuts must be downward closed under. This
    /// is what `lrp-check` verifies the recorded schedules against.
    pub fn discipline(self) -> lrp_core::PersistDiscipline {
        use lrp_core::PersistDiscipline as D;
        match self {
            // NOP persists only on incidental evictions — no promise.
            Mechanism::Nop => D::Unconstrained,
            // Barriers around every release order whole epochs, not the
            // stores inside one: SB flushes the epoch as a blocking
            // batch, BB tracks it lazily — the same promise, differing
            // only in when the pipeline stalls.
            Mechanism::Sb | Mechanism::Bb => D::EpochOrder,
            // The persist buffer drains each thread's stores in order.
            Mechanism::Dpo => D::StoreOrder,
            // LRP enforces exactly the expanded RP rules of §4.1.
            Mechanism::Lrp => D::ReleaseOrder,
        }
    }
}

impl std::str::FromStr for Mechanism {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Mechanism::from_name(s)
            .ok_or_else(|| format!("unknown mechanism {s:?} (expected nop|sb|bb|lrp|dpo)"))
    }
}

impl std::fmt::Display for Mechanism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// NVM latency mode (§6.3): `Cached` persists into a battery-backed
/// NVM-side DRAM cache; `Uncached` exposes the raw PCM write latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NvmMode {
    /// 120-cycle persists (Table 1).
    Cached,
    /// 350-cycle persists (Table 1).
    Uncached,
}

impl NvmMode {
    /// Both modes, cached first (the paper's default).
    pub const ALL: [NvmMode; 2] = [NvmMode::Cached, NvmMode::Uncached];

    /// Stable name for reports and flags.
    pub fn name(self) -> &'static str {
        match self {
            NvmMode::Cached => "cached",
            NvmMode::Uncached => "uncached",
        }
    }

    /// Parses a mode name.
    pub fn from_name(name: &str) -> Option<NvmMode> {
        NvmMode::ALL.into_iter().find(|m| m.name() == name)
    }
}

impl std::str::FromStr for NvmMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        NvmMode::from_name(s)
            .ok_or_else(|| format!("unknown NVM mode {s:?} (expected cached|uncached)"))
    }
}

impl std::fmt::Display for NvmMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Full machine configuration. Defaults reproduce Table 1.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Persistency mechanism.
    pub mechanism: Mechanism,
    /// NVM mode.
    pub nvm_mode: NvmMode,
    /// L1 data cache size in bytes (Table 1: 32 KB).
    pub l1_bytes: usize,
    /// L1 associativity (8-way).
    pub l1_ways: usize,
    /// L1 hit latency in cycles (2).
    pub l1_latency: u64,
    /// LLC bank access latency in cycles (30).
    pub llc_latency: u64,
    /// Number of LLC banks / directory slices (one per tile).
    pub llc_banks: usize,
    /// Mesh dimension (8×8 for 64 cores).
    pub mesh_dim: usize,
    /// Base router traversal cycles per message.
    pub noc_base: u64,
    /// Cycles per mesh hop.
    pub noc_per_hop: u64,
    /// Extra serialization cycles for messages carrying a 64 B line.
    pub noc_data_extra: u64,
    /// Number of NVM memory controllers.
    pub nvm_ctrls: usize,
    /// NVM service interval (queue bandwidth), cycles per request.
    pub nvm_service: u64,
    /// Persist-buffer entries per core: flushes concurrently in flight
    /// from one L1 to the NVM controllers.
    pub flush_mshrs: usize,
    /// Store-buffer entries per core.
    pub store_buffer: usize,
    /// Compute cycles charged between consecutive memory ops.
    pub compute_gap: u64,
    /// LRP parameters (RET size/watermark, epoch width, scan cost).
    pub lrp: LrpConfig,
    /// BB parameters (proactive flushing toggle).
    pub bb: BbConfig,
    /// Safety valve: abort if the event loop exceeds this many cycles.
    pub max_cycles: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            mechanism: Mechanism::Lrp,
            nvm_mode: NvmMode::Cached,
            l1_bytes: 32 * 1024,
            l1_ways: 8,
            l1_latency: 2,
            llc_latency: 30,
            llc_banks: 64,
            mesh_dim: 8,
            noc_base: 3,
            noc_per_hop: 2,
            noc_data_extra: 8,
            nvm_ctrls: 4,
            nvm_service: 16,
            flush_mshrs: 8,
            store_buffer: 16,
            compute_gap: 4,
            lrp: LrpConfig::default(),
            bb: BbConfig::default(),
            max_cycles: 4_000_000_000,
        }
    }
}

impl SimConfig {
    /// A configuration for `mechanism` with Table-1 defaults.
    pub fn new(mechanism: Mechanism) -> Self {
        SimConfig {
            mechanism,
            ..SimConfig::default()
        }
    }

    /// Sets the NVM mode.
    pub fn nvm_mode(mut self, m: NvmMode) -> Self {
        self.nvm_mode = m;
        self
    }

    /// The effective NVM read/persist latency in cycles.
    pub fn nvm_latency(&self) -> u64 {
        match self.nvm_mode {
            NvmMode::Cached => 120,
            NvmMode::Uncached => 350,
        }
    }

    /// Number of L1 sets.
    pub fn l1_sets(&self) -> usize {
        self.l1_bytes / 64 / self.l1_ways
    }

    /// Builds a fresh mechanism instance for one core.
    pub fn build_mech(&self) -> Box<dyn PersistMech> {
        match self.mechanism {
            Mechanism::Nop => Box::new(Nop),
            Mechanism::Sb => Box::new(StrictBarrier::new()),
            Mechanism::Bb => Box::new(BufferedBarrier::new(self.bb.clone())),
            Mechanism::Lrp => Box::new(Lrp::new(self.lrp.clone())),
            Mechanism::Dpo => Box::new(PersistBuffer::new()),
        }
    }

    /// Renders the Table-1 configuration summary.
    pub fn table1(&self) -> String {
        format!(
            "Processor        {}-core (in-order issue, non-blocking stores)\n\
             L1 I+D-Cache     {} KB, {} cycles, {}-way, 64 B lines\n\
             LLC (NUCA)       {} banks, {} cycles, shared\n\
             On-chip network  {}x{} 2D mesh, {}+{}*hops cycles\n\
             Coherence        Directory-based MESI\n\
             NVM (PCM)        cached mode: 120 cycles, uncached mode: 350 cycles ({} ctrls, 1/{} cyc)\n\
             RET (private)    {} entries (watermark {})\n\
             Mechanism        {}",
            self.mesh_dim * self.mesh_dim,
            self.l1_bytes / 1024,
            self.l1_latency,
            self.l1_ways,
            self.llc_banks,
            self.llc_latency,
            self.mesh_dim,
            self.mesh_dim,
            self.noc_base,
            self.noc_per_hop,
            self.nvm_ctrls,
            self.nvm_service,
            self.lrp.ret_capacity,
            self.lrp.ret_watermark,
            self.mechanism,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table1() {
        let c = SimConfig::default();
        assert_eq!(c.l1_bytes, 32 * 1024);
        assert_eq!(c.l1_ways, 8);
        assert_eq!(c.l1_latency, 2);
        assert_eq!(c.llc_latency, 30);
        assert_eq!(c.mesh_dim, 8);
        assert_eq!(c.l1_sets(), 64);
        assert_eq!(c.nvm_latency(), 120);
        assert_eq!(c.nvm_mode(NvmMode::Uncached).nvm_latency(), 350);
    }

    #[test]
    fn mechanism_factory_builds_each() {
        for m in Mechanism::ALL {
            let mech = SimConfig::new(m).build_mech();
            assert_eq!(mech.name(), m.name());
        }
    }

    #[test]
    fn table1_mentions_key_parameters() {
        let t = SimConfig::default().table1();
        assert!(t.contains("32 KB"));
        assert!(t.contains("MESI"));
        assert!(t.contains("120 cycles"));
        assert!(t.contains("32 entries"));
    }
}

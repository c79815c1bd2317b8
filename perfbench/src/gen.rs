//! Workload definitions and the seeded generation of their genes.
//!
//! Every gene is simulated with `slim_sim` (`yule_tree` +
//! `simulate_alignment`) and rendered to Newick/FASTA text; the program
//! under test only ever sees that text.

use crate::stats::mix;
use slim_bio::write_newick;
use slim_model::BranchSiteModel;

/// One generated gene family, as the text a user would hand the program.
#[derive(Debug, Clone)]
pub struct Gene {
    /// Identifier, unique within a run.
    pub id: String,
    /// Newick tree with the foreground branch marked `#1`.
    pub newick: String,
    /// Codon alignment in FASTA.
    pub fasta: String,
}

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Few species, long alignment: pruning and the pattern-block fan-out
    /// dominate.
    GeneLong,
    /// Many species, short alignment: eigendecompositions, P(t), dirty-path
    /// probes and dense BFGS over ~2×species coordinates dominate. Not in
    /// BENCHMARK.json: a 60-second run completes only about six of its
    /// tests, too few for its run-to-run spread to stay inside the bounds,
    /// so it is run by hand.
    GeneDeep,
    /// Every branch of small genes as the foreground, through the batch
    /// worker pool: per-job set-up, cold caches and scheduling matter.
    BranchScan,
}

/// Shape and threading of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Species per gene.
    pub species: usize,
    /// Codons per gene.
    pub codons: usize,
    /// Engine threads per test (`AnalysisOptions::threads`).
    pub engine_threads: usize,
    /// Tests in flight at once (closed loop: a new test starts only when
    /// one finishes); the branch scan's pool size. `engine_threads ×
    /// clients` stays at 2.
    pub clients: usize,
    /// Wall seconds one gene adds to an untraced run on a 2-vCPU Xeon VM:
    /// one test (gene workloads, shared by the clients) or one scan of
    /// every branch (branch_scan). Sizes the run's panel.
    pub gene_s: f64,
}

/// Share of `--seconds` a run's panel is sized to fill, leaving headroom
/// for set-up, the output checks and a slower machine.
const PANEL_FILL: f64 = 0.9;

impl Workload {
    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "gene_long" => Some(Workload::GeneLong),
            "gene_deep" => Some(Workload::GeneDeep),
            "branch_scan" => Some(Workload::BranchScan),
            _ => None,
        }
    }

    /// The workload's name as given to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GeneLong => "gene_long",
            Workload::GeneDeep => "gene_deep",
            Workload::BranchScan => "branch_scan",
        }
    }

    /// Sizes chosen so a 60-second run completes several converged tests
    /// on a 2-core machine.
    pub fn spec(self) -> Spec {
        match self {
            Workload::GeneLong => Spec {
                species: 6,
                codons: 100,
                engine_threads: 2,
                clients: 1,
                gene_s: 4.2,
            },
            Workload::GeneDeep => Spec {
                species: 20,
                codons: 24,
                engine_threads: 1,
                clients: 2,
                gene_s: 8.5,
            },
            Workload::BranchScan => Spec {
                species: 4,
                codons: 60,
                engine_threads: 1,
                clients: 2,
                gene_s: 10.5,
            },
        }
    }

    /// The genes an untraced run of `seconds` tests: a fixed number, so
    /// every run of one seed times the same genes whatever the speed of
    /// the program or the machine.
    pub fn panel(self, seed: u64, seconds: f64) -> Vec<Gene> {
        let n = ((PANEL_FILL * seconds / self.spec().gene_s) as u64).max(1);
        (0..n).map(|i| self.gene(seed, i)).collect()
    }

    /// Gene `index` of the run seeded with `seed`.
    ///
    /// Each workload models the gene families of one clade: its genes
    /// share a fixed Yule species tree and the seed draws their sequences,
    /// so run-to-run spread reflects the data rather than a new topology
    /// per run.
    pub fn gene(self, seed: u64, index: u64) -> Gene {
        let spec = self.spec();
        let tree = slim_sim::yule_tree(spec.species, MEAN_BRANCH_LENGTH, SPECIES_TREE_SEED);
        let aln = slim_sim::simulate_alignment(
            &tree,
            &generating_model(),
            &generating_pi(),
            spec.codons,
            mix(seed, index),
        );
        Gene {
            id: format!("g{index}"),
            newick: write_newick(&tree),
            fasta: aln.to_fasta(),
        }
    }
}

/// Seed of every workload's species tree.
const SPECIES_TREE_SEED: u64 = 3;

/// Expected substitutions per codon per branch, as in the Table II
/// analogs of `slim_sim::presets`.
const MEAN_BRANCH_LENGTH: f64 = 0.15;

/// Branch-site model A with moderate positive selection on ~10% of
/// sites, the generating model of `slim_sim::presets`.
fn generating_model() -> BranchSiteModel {
    BranchSiteModel {
        kappa: 2.5,
        omega0: 0.15,
        omega2: 3.0,
        p0: 0.65,
        p1: 0.25,
    }
}

/// Skewed codon frequencies (the `slim_sim::presets` profile), so F3×4
/// estimation has work to do.
fn generating_pi() -> Vec<f64> {
    let mut pi: Vec<f64> = (0..slim_bio::N_CODONS)
        .map(|i| 1.0 + 0.5 * ((i as f64 * 0.61).sin() + 1.0))
        .collect();
    let s: f64 = pi.iter().sum();
    for p in &mut pi {
        *p /= s;
    }
    pi
}

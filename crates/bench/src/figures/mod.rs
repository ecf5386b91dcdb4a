//! The paper's figures and tables, one function each.
//!
//! Every figure is a `pub fn <name>(exp: &mut Experiment)`: it runs its
//! simulations through the [`Experiment`] it is handed and appends its
//! tables and notes. The [`FIGURES`] registry lists them in the canonical
//! (paper) order, the order the `experiments` driver runs and reports
//! them in. Each figure also has a binary of the same name, a one-line
//! wrapper over [`main`].

use crate::jobspec::JobSpec;
use crate::runner::Experiment;

/// One registered figure: its name (the binary name and the stem of its
/// outputs) and its body.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// Figure name, e.g. `fig07_l1_only`.
    pub name: &'static str,
    /// Runs the figure's simulations and collects its output.
    pub body: fn(&mut Experiment),
}

impl Figure {
    /// Runs the figure under `spec` on the calling thread and returns the
    /// filled experiment, ready to render.
    pub fn run(&self, spec: &JobSpec) -> Experiment {
        let mut exp = Experiment::new(self.name, spec);
        (self.body)(&mut exp);
        exp
    }
}

/// Declares each figure module, re-exports its function, and lists it in
/// [`FIGURES`], all from one ordered list of names.
macro_rules! figures {
    ($($name:ident),* $(,)?) => {
        $(mod $name; pub use $name::$name;)*

        /// Every figure and table, in the canonical (paper) order — the
        /// order manifests report, independent of completion order.
        pub const FIGURES: &[Figure] = &[$(Figure { name: stringify!($name), body: $name }),*];
    };
}

figures!(
    table1_storage,
    table2_config,
    table3_combos,
    fig01_l1_utility,
    fig07_l1_only,
    fig08_multilevel,
    fig09_mpki,
    fig10_coverage,
    fig11_overpredict,
    fig12_class_share,
    fig13a_class_ablation,
    fig13b_priority,
    fig14_cloud_nn,
    fig15_multicore,
    table4_cov_acc,
    sens_dram_bw,
    sens_pq_mshr,
    sens_cache_sizes,
    sens_tables,
    sens_replacement,
    sens_ip_assoc,
    ext_l2_complement,
    ext_temporal,
    fe01_l1i_mpki,
    fe02_frontend_bottleneck,
    fe03_compose_shared_l2,
    fe04_mana_storage,
);

/// The registered figure called `name`, if there is one.
pub fn find(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// The body of every figure binary: runs figure `name` under the settings
/// in the environment ([`JobSpec::from_ambient`]; a malformed knob exits
/// with status 2), prints its text to stdout, and writes the CSVs and the
/// JSON sidecar the settings ask for.
///
/// # Panics
///
/// Panics if no figure is called `name`, and whenever the figure itself
/// panics.
pub fn main(name: &str) {
    let figure = find(name).unwrap_or_else(|| panic!("no figure is called {name:?}"));
    let exp = figure.run(&JobSpec::from_ambient());
    print!("{}", exp.render_text());
    exp.write_outputs();
}

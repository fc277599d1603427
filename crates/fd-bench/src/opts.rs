//! Tiny command-line option parsing shared by the experiment binaries.
//!
//! Dependency-free by design: the binaries only need `--scale <f64>`,
//! `--quick`, and `--only <name,name,…>`.

/// Options common to all experiment binaries.
#[derive(Clone, Debug)]
pub struct CommonOpts {
    /// Workload scale multiplier (1.0 = documented default scale).
    pub scale: f64,
    /// Restrict to the named datasets where the experiment supports it.
    pub only: Vec<String>,
}

impl Default for CommonOpts {
    fn default() -> Self {
        CommonOpts { scale: 1.0, only: Vec::new() }
    }
}

impl CommonOpts {
    /// Parses `std::env::args`, exiting with a usage message on errors.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses an explicit argument iterator (testable).
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut opts = CommonOpts::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--scale" => {
                    let v = it.next().unwrap_or_else(|| usage("--scale needs a value"));
                    opts.scale = v.parse().unwrap_or_else(|_| usage("--scale needs a number"));
                }
                "--quick" => opts.scale = 0.1,
                "--only" => {
                    let v = it.next().unwrap_or_else(|| usage("--only needs a value"));
                    opts.only = v.split(',').map(|s| s.trim().to_string()).collect();
                }
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown argument: {other}")),
            }
        }
        if opts.scale <= 0.0 {
            usage("--scale must be positive");
        }
        opts
    }
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!("usage: <experiment> [--scale <f64>] [--quick] [--only name,name,...]");
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}

/// Prints the runtime columns of a sweep table as an ASCII chart.
/// `x_label` names the first column, which must parse as numbers.
pub fn emit_runtime_chart(table: &crate::table::Table, x_label: &str) {
    let x: Vec<f64> = table.column(0).iter().filter_map(|c| c.parse().ok()).collect();
    if x.len() != table.n_rows() {
        return; // non-numeric x axis: nothing to plot
    }
    let columns = table.columns_with_suffix("[s]");
    let series = crate::chart::series_from_columns(&x, &columns);
    let options = crate::chart::ChartOptions { x_label: x_label.into(), ..Default::default() };
    println!("{}", crate::chart::render(&series, &options));
}

/// Prints a rendered table and persists its CSV in the results directory
/// of a run at `scale` ([`crate::table::results_dir_for`]).
pub fn emit(title: &str, name: &str, table: &crate::table::Table, scale: f64) {
    println!("== {title} ==");
    println!("{}", table.render());
    match table.save_csv(name, scale) {
        Ok(path) => println!("[saved {}]", path.display()),
        Err(e) => eprintln!("[warn] could not save {name}.csv: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scale_and_only() {
        let o = CommonOpts::parse_from(
            ["--scale", "0.5", "--only", "iris, adult"].iter().map(|s| s.to_string()),
        );
        assert_eq!(o.scale, 0.5);
        assert_eq!(o.only, vec!["iris".to_string(), "adult".to_string()]);
    }

    #[test]
    fn quick_sets_small_scale() {
        let o = CommonOpts::parse_from(["--quick".to_string()]);
        assert!((o.scale - 0.1).abs() < 1e-12);
    }

    #[test]
    fn defaults_are_full_scale() {
        let o = CommonOpts::parse_from(Vec::<String>::new());
        assert_eq!(o.scale, 1.0);
        assert!(o.only.is_empty());
    }
}

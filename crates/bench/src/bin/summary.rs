//! Run the complete evaluation: Tables 1-3 and Figure 7, printing the
//! tables and archiving CSVs under `results/`.

fn main() {
    std::fs::create_dir_all("results").ok();
    println!("=== Table 1 ===\n");
    let t1 = chf_bench::table1::run();
    print!("{}", chf_bench::table1::render(&t1));

    println!("\n=== Table 2 ===\n");
    let t2 = chf_bench::table2::run();
    print!("{}", chf_bench::table2::render(&t2));

    let budget = chf_bench::table2::DEFAULT_TRIAL_BUDGET;
    println!("\n=== Table 2 budget ablation (cap: {budget} trials/function) ===\n");
    let t2b = chf_bench::table2::run_budget();
    print!("{}", chf_bench::table2::render_budget(&t2b, budget));

    println!("\n=== Table 3 ===\n");
    let t3 = chf_bench::table3::run();
    print!("{}", chf_bench::table3::render(&t3));

    println!("\n=== Figure 7 ===\n");
    let pts = chf_bench::fig7::points(&t1);
    let fit = chf_bench::fig7::linear_fit(&pts);
    println!(
        "{} points, fit: cycles_saved = {:.2} * blocks_saved + {:.1}, r^2 = {:.3}",
        pts.len(),
        fit.slope,
        fit.intercept,
        fit.r2
    );

    for (name, data) in [
        ("results/table1.csv", chf_bench::table1::csv(&t1)),
        ("results/table2.csv", chf_bench::table2::csv(&t2)),
        (
            "results/table2_budget.csv",
            chf_bench::table2::budget_csv(&t2b),
        ),
        ("results/table3.csv", chf_bench::table3::csv(&t3)),
        ("results/fig7.csv", chf_bench::fig7::csv(&pts, &fit)),
    ] {
        match std::fs::write(name, data) {
            Ok(()) => println!("wrote {name}"),
            Err(e) => eprintln!("could not write {name}: {e}"),
        }
    }
}

//! Regenerates every table and figure in one pass (measured results: the
//! README tables and `benchmark/README.md`).
fn main() {
    let datasets = bench::all_datasets();
    bench::tables::table2(&datasets);
    bench::tables::table3(&datasets);
    bench::tables::figure6(&datasets);
    bench::tables::table4(&datasets);
    bench::tables::figure7(&datasets);
    bench::tables::table5(&datasets);
    bench::tables::table6(&datasets);
    bench::tables::table7(&datasets);
}

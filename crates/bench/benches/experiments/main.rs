//! Every experiment of the reproduction behind one binary: the paper's
//! figures, the §5 sketches and the six grids, each declared once in
//! [`registry`].
//!
//! ```sh
//! cargo bench -p bench --bench experiments -- --smoke        # every entry: small grids, gates
//! cargo bench -p bench --bench experiments -- --smoke chaos  # one entry
//! cargo bench -p bench --bench experiments -- fanin fig4a    # full grids, write BENCH_*.json
//! ```

mod registry;

fn main() {
    std::process::exit(registry::drive(std::env::args().skip(1)));
}

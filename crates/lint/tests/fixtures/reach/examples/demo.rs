//! An example is a caller.

fn main() {
    println!("{} {}", alpha::used_by_example(), beta::run());
}

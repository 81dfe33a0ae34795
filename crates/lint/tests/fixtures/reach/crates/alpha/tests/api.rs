//! An integration test names items; it reaches none of them.

#[test]
fn tests_do_not_count() {
    let _ = alpha::Reexported;
    assert_eq!(alpha::only_tested(), 2);
}

//! Seeded panic-path violations in the trainer's checkpoint codec (lint
//! fixture): rule 4 covers this file by name, because it decodes
//! untrusted bytes on the save/resume path.

pub fn first_word(words: &[u64]) -> u64 {
    *words.first().unwrap()
}

pub fn section_of(found: Option<&[u8]>) -> &[u8] {
    // inerf-lint: allow(panic-path) -- fixture: the caller checked the tag list
    found.expect("section present")
}

//! The built-in halo soak passes its own gates at every small world: a
//! term of the default fault spec that `n` ranks cannot fire is not armed,
//! so no gate reports it unfired.

use bench::Scenario;

#[test]
fn the_halo_soak_passes_every_gate_at_2_to_8_ranks() {
    for ranks in 2..=8 {
        let run = bench::run(&Scenario::halo_soak(ranks)).unwrap();
        assert_eq!(run.violations(), Vec::<String>::new(), "{ranks} ranks");
        assert!(
            !run.scenario.faults.link.is_empty(),
            "{ranks} ranks: nothing armed"
        );
    }
}

// Fixture: reasoned suppressions silence findings; a reasonless one is
// itself a finding and silences nothing.
fn price(total: f64, mass: f64) -> f64 {
    // nimbus-audit: allow(float-eq) — exact-zero guard: total is a sum of non-negative masses
    if total == 0.0 {
        return 0.0;
    }
    let unit = mass == 1.0; // nimbus-audit: allow(float-eq) — fixture: same-line form
    let scale = if unit { 1.0 } else { mass };
    // nimbus-audit: allow(float-eq)
    let half = scale == 0.5;
    if half {
        scale
    } else {
        scale / total
    }
}

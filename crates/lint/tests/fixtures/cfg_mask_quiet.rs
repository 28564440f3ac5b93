// The cfg(test) mask must silence the semantic rule inside a
// `#[cfg(test)]` impl block and inside a nested mod under
// `#[cfg(test)] mod tests` — the two shapes the old flat attribute scan
// got wrong. The single unmasked trigger at the bottom proves the rule
// still runs on the rest of the file.

pub struct T;

#[cfg(test)]
impl T {
    fn helper(xs: &[f64]) -> f64 {
        let mut acc = 0.0;
        for x in xs {
            acc += *x;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    mod nested {
        pub fn total(xs: &[f64]) -> f64 {
            xs.iter().copied().sum::<f64>()
        }
    }
}

pub fn unmasked(xs: &[f64]) -> f64 {
    xs.iter().copied().sum::<f64>()
}

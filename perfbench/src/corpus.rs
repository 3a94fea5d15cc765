//! Seeded input generation and the emulator oracle.
//!
//! Every image the program receives is compiled here from a bundled
//! kernel, either under a seeded scheduler order (`sched_seed`) or with
//! seeded statement edits ([`gpa_minicc::edits::apply_edits`]). The
//! reference behaviour of an image is its own emulator run before
//! optimization; it never comes from the optimizer.

use gpa_emu::Machine;
use gpa_image::Image;
use gpa_minicc::edits::EditConfig;
use gpa_minicc::Options;

use crate::Rng;

/// Emulator step cap; the longest kernel (qsort) runs ~41M instructions.
const MAX_STEPS: u64 = 1_000_000_000;

/// One generated input image.
pub struct Variant {
    /// Display name, e.g. `sha@sched=…` or `crc@edits=2,seed=…`.
    pub name: String,
    pub kernel: &'static str,
    pub image: Image,
}

impl Variant {
    /// The kernel as bundled (default schedule, no edits).
    pub fn base(kernel: &'static str) -> Result<Variant, String> {
        compile(kernel.to_owned(), kernel, source(kernel)?, 0)
    }

    /// The kernel compiled under a non-default scheduler seed: same
    /// computations, different instruction order in every block.
    pub fn scheduled(kernel: &'static str, sched_seed: u64) -> Result<Variant, String> {
        let name = format!("{kernel}@sched={sched_seed}");
        compile(name, kernel, source(kernel)?, sched_seed)
    }

    /// The kernel with `edits` seeded statement edits, default schedule.
    ///
    /// An edit can land after a `return`, which leaves a block no path
    /// reaches; the image then fails `gpa lint` (V003), and so does every
    /// validated optimization of it, by design. Such draws are skipped:
    /// the edit seed is redrawn until the edited image lints clean.
    pub fn edited(kernel: &'static str, edits: usize, rng: &mut Rng) -> Result<Variant, String> {
        let source = source(kernel)?;
        loop {
            let seed = rng.seed();
            let name = format!("{kernel}@edits={edits},seed={seed}");
            let edited = gpa_minicc::edits::apply_edits(source, &EditConfig { edits, seed });
            let variant = compile(name, kernel, &edited, 0)?;
            if !gpa_verify::has_errors(&gpa_verify::lint_image(&variant.image)) {
                return Ok(variant);
            }
        }
    }

    /// Code words of the unoptimized image.
    pub fn words(&self) -> usize {
        self.image.code_len()
    }
}

fn source(kernel: &str) -> Result<&'static str, String> {
    gpa_minicc::programs::source(kernel).ok_or_else(|| format!("unknown kernel {kernel}"))
}

fn compile(
    name: String,
    kernel: &'static str,
    src: &str,
    sched_seed: u64,
) -> Result<Variant, String> {
    let options = Options {
        schedule: true,
        sched_seed,
    };
    let image = gpa_minicc::compile(src, &options).map_err(|e| format!("{name}: {e}"))?;
    Ok(Variant {
        name,
        kernel,
        image,
    })
}

/// What an image does when run: the oracle's unit of comparison.
#[derive(Clone, PartialEq, Eq)]
pub struct Behaviour {
    pub exit_code: u32,
    pub output: Vec<u8>,
    /// Dynamic instructions executed.
    pub steps: u64,
}

/// Runs `image` on the emulator.
pub fn emulate(image: &Image) -> Result<Behaviour, String> {
    let outcome = Machine::new(image)
        .run(MAX_STEPS)
        .map_err(|e| format!("emulator: {e}"))?;
    Ok(Behaviour {
        exit_code: outcome.exit_code,
        output: outcome.output,
        steps: outcome.steps,
    })
}

/// Emulates `optimized` and checks it prints and exits exactly like the
/// `reference` run of its unoptimized image; returns its dynamic
/// instruction count.
pub fn check_behaviour(
    name: &str,
    reference: &Behaviour,
    optimized: &Image,
) -> Result<u64, String> {
    let after = emulate(optimized).map_err(|e| format!("{name}: optimized image: {e}"))?;
    if after.exit_code != reference.exit_code {
        return Err(format!(
            "{name}: exit code {} after optimization, {} before",
            after.exit_code, reference.exit_code
        ));
    }
    if after.output != reference.output {
        return Err(format!("{name}: program output changed by optimization"));
    }
    Ok(after.steps)
}

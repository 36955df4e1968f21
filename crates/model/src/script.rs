//! Scripts: sequences of primitive disk costs.

use cedar_disk::clock::Micros;
use cedar_disk::DiskTiming;
use std::fmt;

/// A primitive cost in an operation script.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// A long seek of the given cylinder distance.
    Seek(u32),
    /// An average long seek (distance = cylinders / 3).
    AvgSeek,
    /// A short seek ("a few cylinders").
    ShortSeek,
    /// Average rotational latency: half a revolution.
    Latency,
    /// A lost revolution.
    Revolution,
    /// A lost revolution minus `n` sector transfers — the §6 example's
    /// "(revolution − 3 page transfers)" when rewriting sectors the head
    /// just passed.
    RevolutionMinus(u32),
    /// Transfer of `n` sectors.
    Transfer(u32),
    /// CPU time in microseconds.
    Cpu(Micros),
    /// Rotational wait to reach a sector `offset` sectors after where the
    /// previous I/O ended, given `cpu_us` of processing in between — the
    /// §6 "known rotational position" case for back-to-back operations
    /// on adjacent sectors.
    RotationalJoin {
        /// CPU time elapsed since the previous transfer ended.
        cpu_us: Micros,
        /// Sectors between the previous end and the next target.
        offset: u32,
    },
}

impl Step {
    /// Evaluates the step against a drive's timing, for a volume of
    /// `cylinders` cylinders.
    pub fn evaluate(&self, timing: &DiskTiming, cylinders: u32) -> Micros {
        match self {
            Step::Seek(d) => timing.seek_us(*d),
            Step::AvgSeek => timing.average_seek_us(cylinders),
            Step::ShortSeek => timing.short_seek_us,
            Step::Latency => timing.latency_us(),
            Step::Revolution => timing.revolution_us(),
            Step::RevolutionMinus(n) => timing
                .revolution_us()
                .saturating_sub(*n as Micros * timing.sector_us()),
            Step::Transfer(n) => *n as Micros * timing.sector_us(),
            Step::Cpu(us) => *us,
            Step::RotationalJoin { cpu_us, offset } => {
                let rev = timing.revolution_us();
                let target = *offset as Micros * timing.sector_us() % rev;
                let elapsed = cpu_us % rev;
                (target + rev - elapsed) % rev
            }
        }
    }

    /// Whether this step counts as disk time (vs CPU).
    pub fn is_disk(&self) -> bool {
        !matches!(self, Step::Cpu(_))
    }
}

/// A labelled sequence of steps modelling one operation.
#[derive(Clone, Debug, Default)]
pub struct Script {
    /// Human-readable operation name.
    pub name: String,
    /// The steps, each with a short annotation (the §6 scripts are
    /// written exactly this way: "1) Verify free pages: 1 seek, 1
    /// latency, 3 page transfers").
    pub steps: Vec<(String, Step)>,
}

impl Script {
    /// Creates an empty script.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            steps: Vec::new(),
        }
    }

    /// Appends a step with an annotation.
    pub fn step(mut self, what: &str, step: Step) -> Self {
        self.steps.push((what.to_string(), step));
        self
    }

    /// Appends several steps under one annotation.
    pub fn steps(mut self, what: &str, steps: &[Step]) -> Self {
        for s in steps {
            self.steps.push((what.to_string(), *s));
        }
        self
    }

    /// Total predicted time.
    pub fn total_us(&self, timing: &DiskTiming, cylinders: u32) -> Micros {
        self.steps
            .iter()
            .map(|(_, s)| s.evaluate(timing, cylinders))
            .sum()
    }

    /// Predicted disk time only.
    pub fn disk_us(&self, timing: &DiskTiming, cylinders: u32) -> Micros {
        self.steps
            .iter()
            .filter(|(_, s)| s.is_disk())
            .map(|(_, s)| s.evaluate(timing, cylinders))
            .sum()
    }

    /// Predicted CPU time only.
    pub fn cpu_us(&self) -> Micros {
        self.steps
            .iter()
            .map(|(_, s)| match s {
                Step::Cpu(us) => *us,
                _ => 0,
            })
            .sum()
    }

    /// Renders the script in the paper's style, a run of identical
    /// consecutive steps on one line.
    pub fn render(&self, timing: &DiskTiming, cylinders: u32) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "{}:", self.name);
        for (i, same) in self.steps.chunk_by(|a, b| a == b).enumerate() {
            let (what, step) = &same[0];
            let times = match same.len() {
                1 => String::new(),
                n => format!("{n} × "),
            };
            let _ = writeln!(
                out,
                "  {}) {what}: {times}{step} = {:.2} ms",
                i + 1,
                (same.len() as Micros * step.evaluate(timing, cylinders)) as f64 / 1000.0
            );
        }
        let _ = writeln!(
            out,
            "  total = {:.2} ms",
            self.total_us(timing, cylinders) as f64 / 1000.0
        );
        out
    }
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Step::Seek(d) => write!(f, "seek({d})"),
            Step::AvgSeek => write!(f, "seek"),
            Step::ShortSeek => write!(f, "short seek"),
            Step::Latency => write!(f, "latency"),
            Step::Revolution => write!(f, "revolution"),
            Step::RevolutionMinus(n) => write!(f, "(revolution − {n} transfers)"),
            Step::Transfer(n) => write!(f, "{n} page transfers"),
            Step::Cpu(us) => write!(f, "cpu {us} µs"),
            Step::RotationalJoin { cpu_us, offset } => {
                write!(f, "rotational join (+{offset} sectors after {cpu_us} µs)")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: DiskTiming = DiskTiming::TRIDENT_T300;
    const CYLS: u32 = 815;

    #[test]
    fn step_arithmetic() {
        assert_eq!(Step::Latency.evaluate(&T, CYLS), T.latency_us());
        assert_eq!(Step::Revolution.evaluate(&T, CYLS), T.revolution_us());
        assert_eq!(
            Step::RevolutionMinus(3).evaluate(&T, CYLS),
            T.revolution_us() - 3 * T.sector_us()
        );
        assert_eq!(Step::Transfer(5).evaluate(&T, CYLS), 5 * T.sector_us());
        assert_eq!(Step::Cpu(123).evaluate(&T, CYLS), 123);
    }

    #[test]
    fn script_totals_sum_steps() {
        let s = Script::new("demo")
            .step("position", Step::AvgSeek)
            .step("wait", Step::Latency)
            .step("move", Step::Transfer(3))
            .step("think", Step::Cpu(1000));
        assert_eq!(
            s.total_us(&T, CYLS),
            T.average_seek_us(CYLS) + T.latency_us() + 3 * T.sector_us() + 1000
        );
        assert_eq!(s.cpu_us(), 1000);
        assert_eq!(s.disk_us(&T, CYLS), s.total_us(&T, CYLS) - 1000);
    }

    #[test]
    fn render_mentions_every_step() {
        let s = Script::new("op")
            .step("a", Step::Latency)
            .step("b", Step::Revolution)
            .steps("c", &[Step::ShortSeek; 3]);
        let text = s.render(&T, CYLS);
        assert!(text.contains("1) a"));
        assert!(text.contains("2) b"));
        assert!(text.contains("3) c: 3 × short seek = 18.00 ms"));
        assert!(text.contains("total"));
    }
}

use std::process::ExitCode;

use myrtus_simbench::parent::{self, Args};
use myrtus_simbench::workloads;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("simbench: {e}");
            eprintln!(
                "usage: simbench --workload <storm|surge|burst-vm> --seed <n> --seconds <s> \
                 --trace <0|1> [--size <full|tiny>]"
            );
            return ExitCode::from(2);
        }
    };
    if args.child {
        let sample = workloads::run(args.workload, args.seed, args.size, args.traced);
        print!("{}", parent::encode(&sample));
        if args.traced {
            parent::write_spans(&args);
        }
        return ExitCode::SUCCESS;
    }
    match parent::run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("simbench: {e}");
            ExitCode::from(1)
        }
    }
}

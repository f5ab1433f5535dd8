let servers =
  [
    (Server.mc, Server_effects.process_raw);
    (Server.lwt, Server_monad.process_raw);
    (Server.go, Server_go.process_raw);
  ]

let default_rates = [ 5_000; 10_000; 15_000; 20_000; 25_000; 30_000; 35_000; 40_000 ]

let fig6a ?(duration_ms = 2_000) () =
  List.map
    (fun (model, process) ->
      ( model.Server.name,
        List.map
          (fun rate_rps ->
            let o = Loadgen.run ~model ~process ~rate_rps ~duration_ms () in
            (rate_rps, o.achieved_rps))
          default_rates ))
    servers

let fig6b ?(rate_rps = 20_000) ?(duration_ms = 4_000) () =
  List.map
    (fun (model, process) -> Loadgen.run ~model ~process ~rate_rps ~duration_ms ())
    servers

type degradation_cell = {
  intensity : float;
  outcome : Loadgen.outcome;
}

let degradation ?(duration_ms = 1_000) ?(rates = [ 10_000; 20_000; 30_000 ]) () =
  List.map
    (fun (model, process) ->
      ( model.Server.name,
        List.concat_map
          (fun intensity ->
            let faults = Faults.scale intensity Faults.default in
            List.map
              (fun rate_rps ->
                let outcome =
                  Loadgen.run ~seed:42 ~faults ~model ~process ~rate_rps ~duration_ms ()
                in
                { intensity; outcome })
              rates)
          [ 0.0; 0.5; 1.0; 2.0 ] ))
    servers

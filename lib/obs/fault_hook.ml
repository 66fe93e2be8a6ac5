let hook : (site:string -> key:string -> unit) ref = ref (fun ~site:_ ~key:_ -> ())
let hit ~site ~key = !hook ~site ~key

type device = Disk | Network

type bus = { bus_id : int; node : Numa.Topology.node; devices : device list }

type t = {
  bus_list : bus list;
  owners : (int, Domain.t) Hashtbl.t;
}

let create ~buses =
  let bus_list = List.mapi (fun bus_id (node, devices) -> { bus_id; node; devices }) buses in
  { bus_list; owners = Hashtbl.create 4 }

let amd48 () = create ~buses:[ (0, [ Network; Disk ]); (6, [ Disk ]) ]

let buses t = t.bus_list

let assign_bus t ~bus_id domain =
  if not (List.exists (fun b -> b.bus_id = bus_id) t.bus_list) then Error "no such bus"
  else
    match Hashtbl.find_opt t.owners bus_id with
    | Some owner when owner.Domain.id <> domain.Domain.id ->
        Error
          (Printf.sprintf "bus %d already assigned to domain %d (passthrough is bus-granular)"
             bus_id owner.Domain.id)
    | Some _ -> Ok ()
    | None ->
        Hashtbl.replace t.owners bus_id domain;
        Ok ()

let release_bus t ~bus_id = Hashtbl.remove t.owners bus_id

let owner t ~bus_id = Hashtbl.find_opt t.owners bus_id

let domain_has_passthrough t domain device =
  List.exists
    (fun b ->
      List.mem device b.devices
      &&
      match Hashtbl.find_opt t.owners b.bus_id with
      | Some owner -> owner.Domain.id = domain.Domain.id
      | None -> false)
    t.bus_list
